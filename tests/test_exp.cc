/**
 * @file
 * Tests for the src/exp experiment-orchestration subsystem: the
 * work-stealing pool and job graph, the persistent artifact cache,
 * the thread-safe trace cache, and — the key acceptance property —
 * that the parallel scheduler produces exactly the statistics the
 * direct serial runWorkload() calls produce.
 *
 * All suites here are named Exp* so the thread-sanitizer stage in
 * tools/run_checks.sh can select them with `ctest -R '^Exp'`.
 */

#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "exp/artifact_cache.hh"
#include "exp/driver.hh"
#include "exp/hash.hh"
#include "exp/pool.hh"
#include "exp/registry.hh"
#include "exp/results.hh"
#include "report/experiment.hh"
#include "synth/generator.hh"

namespace oscache
{
namespace
{

namespace fs = std::filesystem;

// ------------------------------------------------------------- pool

TEST(ExpPool, RunsEveryJob)
{
    WorkStealingPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.submit([&count] { count.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(count.load(), 200);
}

TEST(ExpPool, NestedSubmitFromWorker)
{
    WorkStealingPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 8; ++i)
        pool.submit([&pool, &count] {
            for (int j = 0; j < 4; ++j)
                pool.submit([&count] { count.fetch_add(1); });
        });
    pool.drain();
    EXPECT_EQ(count.load(), 32);
}

TEST(ExpPool, DrainPropagatesFirstException)
{
    WorkStealingPool pool(2);
    for (int i = 0; i < 10; ++i)
        pool.submit([i] {
            if (i == 5)
                throw std::runtime_error("job 5 failed");
        });
    EXPECT_THROW(pool.drain(), std::runtime_error);
    // The pool stays usable after a failed drain.
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.drain();
    EXPECT_EQ(count.load(), 1);
}

TEST(ExpPool, DrainWithoutJobsReturns)
{
    WorkStealingPool pool(2);
    pool.drain();
    SUCCEED();
}

// -------------------------------------------------------------- graph

TEST(ExpGraph, RespectsDependencies)
{
    JobGraph graph;
    std::vector<int> order;
    std::mutex m;
    auto log = [&](int id) {
        return [&order, &m, id] {
            std::lock_guard<std::mutex> lock(m);
            order.push_back(id);
        };
    };
    const auto a = graph.add("a", log(0));
    const auto b = graph.add("b", log(1), {a});
    const auto c = graph.add("c", log(2), {a});
    graph.add("d", log(3), {b, c});
    graph.run(4);

    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order.front(), 0);
    EXPECT_EQ(order.back(), 3);
}

TEST(ExpGraph, SkipsDependentsOfFailedNode)
{
    JobGraph graph;
    std::atomic<bool> dependent_ran{false};
    const auto a =
        graph.add("fails", [] { throw std::runtime_error("boom"); });
    graph.add("skipped", [&dependent_ran] { dependent_ran = true; }, {a});
    EXPECT_THROW(graph.run(2), std::runtime_error);
    EXPECT_FALSE(dependent_ran.load());
}

TEST(ExpGraph, ParallelMatchesSerial)
{
    // The same graph run with 1 and with 4 threads must produce the
    // same per-node results.
    auto build_and_run = [](unsigned threads) {
        JobGraph graph;
        std::vector<int> results(20, 0);
        std::vector<JobGraph::NodeId> prev;
        for (int i = 0; i < 20; ++i) {
            const int dep = i >= 2 ? i - 2 : -1;
            std::vector<JobGraph::NodeId> deps;
            if (dep >= 0)
                deps.push_back(prev[std::size_t(dep)]);
            prev.push_back(graph.add(
                std::string("n") + std::to_string(i),
                [&results, dep, i] {
                    results[std::size_t(i)] =
                        (dep >= 0 ? results[std::size_t(dep)] : 1) * 2 + i;
                },
                deps));
        }
        graph.run(threads);
        return results;
    };
    EXPECT_EQ(build_and_run(1), build_and_run(4));
}

// ----------------------------------------------------- artifact cache

TEST(ExpArtifactCache, KeyIsStableAndSensitive)
{
    const WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    const CoherenceOptions none = CoherenceOptions::none();
    EXPECT_EQ(TraceStore::keyFor(p, none), TraceStore::keyFor(p, none));

    WorkloadProfile p2 = p;
    p2.seed += 1;
    EXPECT_NE(TraceStore::keyFor(p, none), TraceStore::keyFor(p2, none));
    EXPECT_NE(TraceStore::keyFor(p, none),
              TraceStore::keyFor(p, CoherenceOptions::relocUpdate()));
    EXPECT_NE(TraceStore::keyFor(p, none, 4),
              TraceStore::keyFor(p, none, 8));
}

TEST(ExpArtifactCache, StoreLoadRoundTrip)
{
    const std::string dir = "/tmp/oscache_test_artifacts_roundtrip";
    fs::remove_all(dir);
    TraceStore store(dir);

    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    p.quanta = 2;
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    const std::string key =
        TraceStore::keyFor(p, CoherenceOptions::none());

    EXPECT_FALSE(store.load(key).has_value());
    store.store(key, trace);
    const auto loaded = store.load(key);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->totalRecords(), trace.totalRecords());
    EXPECT_EQ(loaded->numCpus(), trace.numCpus());
    EXPECT_EQ(store.hits(), 1u);
    EXPECT_EQ(store.misses(), 1u);
}

TEST(ExpArtifactCache, CorruptFileRejectedAndRemoved)
{
    const std::string dir = "/tmp/oscache_test_artifacts_corrupt";
    fs::remove_all(dir);
    TraceStore store(dir);

    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Shell);
    p.quanta = 2;
    const Trace trace = generateTrace(p, CoherenceOptions::none());
    const std::string key =
        TraceStore::keyFor(p, CoherenceOptions::none());
    store.store(key, trace);

    // Truncate the artifact to simulate a torn write.
    const std::string path = store.pathFor(key);
    const auto size = fs::file_size(path);
    fs::resize_file(path, size / 2);

    EXPECT_FALSE(store.load(key).has_value());
    EXPECT_EQ(store.rejected(), 1u);
    EXPECT_FALSE(fs::exists(path)) << "corrupt artifact must be deleted";

    // A fresh store regenerates transparently.
    store.store(key, trace);
    EXPECT_TRUE(store.load(key).has_value());
}

TEST(ExpArtifactCache, ConcurrentSameKeyTraceWritersNeverTear)
{
    // Same discipline, one layer down: the trace artifact cache that
    // all workers share.  Two processes store the same key
    // concurrently; readers must only ever see a complete artifact.
    const std::string dir = "/tmp/oscache_test_serve_trace_race";
    fs::remove_all(dir);

    WorkloadProfile profile =
        WorkloadProfile::forKind(WorkloadKind::Trfd4);
    profile.quanta = 2;
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none());
    const std::string key =
        TraceStore::keyFor(profile, CoherenceOptions::none());

    pid_t writers[2];
    for (int w = 0; w < 2; ++w) {
        writers[w] = ::fork();
        ASSERT_GE(writers[w], 0);
        if (writers[w] == 0) {
            TraceStore mine(dir);
            for (int i = 0; i < 10; ++i)
                mine.store(key, trace);
            ::_exit(0);
        }
    }

    TraceStore reader(dir);
    int alive = 2;
    int reaped_ok = 0;
    while (alive > 0) {
        const auto loaded = reader.load(key);
        if (loaded.has_value()) {
            EXPECT_EQ(loaded->totalRecords(), trace.totalRecords());
        }
        for (const pid_t w : writers) {
            int status = 0;
            if (::waitpid(w, &status, WNOHANG) == w) {
                --alive;
                if (status == 0)
                    ++reaped_ok;
            }
        }
    }
    EXPECT_EQ(reaped_ok, 2);
    EXPECT_EQ(reader.rejected(), 0u)
        << "a reader saw a torn artifact";
    ASSERT_TRUE(reader.load(key).has_value());
}

// -------------------------------------------------------- trace cache

TEST(ExpTraceCache, ConcurrentRequestsGenerateOnce)
{
    clearTraceCache();
    resetTraceCacheStats();
    constexpr int kThreads = 8;
    std::vector<std::shared_ptr<const Trace>> seen(kThreads);
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t)
            threads.emplace_back([&seen, t] {
                seen[std::size_t(t)] = cachedWorkloadTrace(
                    WorkloadKind::Trfd4, CoherenceOptions::none());
            });
        for (auto &th : threads)
            th.join();
    }
    for (int t = 1; t < kThreads; ++t)
        EXPECT_EQ(seen[std::size_t(t)], seen[0]) << "same latch result";
    EXPECT_EQ(traceCacheStats().generated, 1u);
    clearTraceCache();
}

TEST(ExpTraceCache, ClearDuringUseKeepsTracesAlive)
{
    clearTraceCache();
    const auto trace =
        cachedWorkloadTrace(WorkloadKind::Trfd4, CoherenceOptions::none());
    const std::size_t records = trace->totalRecords();
    clearTraceCache();
    // The holder's pointer must stay valid after the clear.
    EXPECT_EQ(trace->totalRecords(), records);
    clearTraceCache();
}

// ---------------------------------------------- scheduler == serial

TEST(ExpScheduler, MatchesDirectRunWorkload)
{
    // Run figure2 through the parallel scheduler and check every cell
    // against a direct serial runWorkload() call.
    const Experiment *fig2 = findExperiment("figure2");
    ASSERT_NE(fig2, nullptr);

    DriverOptions options;
    options.jobs = 4;
    const DriverReport report = runExperiments({fig2}, options);
    ASSERT_EQ(report.experiments.size(), 1u);
    const auto &outcomes = report.experiments[0].outcomes;
    ASSERT_EQ(outcomes.size(), fig2->cells.size());

    for (const CellSpec &cell : fig2->cells) {
        const auto it = outcomes.find(cell.id);
        ASSERT_NE(it, outcomes.end()) << cell.id;
        const RunResult direct =
            runWorkload(cell.workload, cell.system, cell.machine);
        const SimStats &a = it->second.run.stats;
        const SimStats &b = direct.stats;
        EXPECT_EQ(a.osTime(), b.osTime()) << cell.id;
        EXPECT_EQ(a.osMissTotal(), b.osMissTotal()) << cell.id;
        EXPECT_EQ(a.osMissBlock, b.osMissBlock) << cell.id;
        EXPECT_EQ(a.osMissCoherenceTotal(), b.osMissCoherenceTotal())
            << cell.id;
        EXPECT_EQ(a.osMissPartiallyHidden, b.osMissPartiallyHidden)
            << cell.id;
        EXPECT_EQ(a.userMisses, b.userMisses) << cell.id;
        EXPECT_EQ(it->second.run.bus.totalBytes, direct.bus.totalBytes)
            << cell.id;
    }
}

TEST(ExpScheduler, SharesIdenticalCellsAcrossExperiments)
{
    // table1, table2, and table5 all need Base on all four workloads:
    // the scheduler must simulate each cell once and share it.
    const std::vector<const Experiment *> selected =
        resolveExperiments({"table1", "table2", "table5"});
    ASSERT_EQ(selected.size(), 3u);

    DriverOptions options;
    options.jobs = 2;
    const DriverReport report = runExperiments(selected, options);
    EXPECT_EQ(report.cellsRun, 4u);
    EXPECT_EQ(report.cellsShared, 8u);
    for (const ExperimentReport &er : report.experiments) {
        EXPECT_EQ(er.outcomes.size(), 4u);
        EXPECT_FALSE(er.rendered.empty());
    }
}

TEST(ExpScheduler, WarmArtifactCacheSkipsGeneration)
{
    const std::string dir = "/tmp/oscache_test_artifacts_warm";
    fs::remove_all(dir);
    const Experiment *table2 = findExperiment("table2");
    ASSERT_NE(table2, nullptr);

    {
        TraceStore store(dir);
        DriverOptions options;
        options.jobs = 2;
        options.store = &store;
        clearTraceCache();
        const DriverReport cold = runExperiments({table2}, options);
        EXPECT_GT(cold.traceStats.generated, 0u);
    }
    {
        TraceStore store(dir);
        DriverOptions options;
        options.jobs = 2;
        options.store = &store;
        clearTraceCache();
        const DriverReport warm = runExperiments({table2}, options);
        EXPECT_EQ(warm.traceStats.generated, 0u)
            << "warm rerun must not regenerate traces";
        EXPECT_GT(warm.traceStats.persistentHits, 0u);
    }
    clearTraceCache();
}

// ------------------------------------------------------------ results

TEST(ExpResults, ControlCharactersInNamesStayValidJson)
{
    CellOutcome outcome;
    outcome.extra["tab\tkey"] = 1.5;
    ResultRow row;
    row.experiment = "exp\tname";
    row.cell = "cell\r1";
    row.outcome = &outcome;

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(resultRowJsonl(row), parsed, &error)) << error;
    EXPECT_EQ(parsed.get("experiment").asString(), "exp\tname");
    EXPECT_EQ(parsed.get("cell").asString(), "cell\r1");
    EXPECT_EQ(parsed.get("extra").get("tab\tkey").asDouble(), 1.5);
}

TEST(ExpResults, CanonicalRowZeroesRunVaryingFields)
{
    CellOutcome outcome;
    outcome.run.stats.userMisses = 42;
    outcome.run.stats.osMissOther = 7;
    ResultRow row;
    row.experiment = "table2";
    row.cell = "base/trfd4";
    row.wallMs = 1234.5;
    row.peakRssKb = 65536;
    row.shared = true;
    row.traceMode = "materialized";
    row.outcome = &outcome;

    Json plain, canonical;
    ASSERT_TRUE(Json::parse(resultRowJsonl(row), plain));
    row.canonical = true;
    ASSERT_TRUE(Json::parse(resultRowJsonl(row), canonical));

    EXPECT_EQ(plain.get("wall_ms").asDouble(), 1234.5);
    EXPECT_EQ(plain.get("peak_rss_kb").asInt(), 65536);
    EXPECT_TRUE(plain.get("shared").asBool());
    EXPECT_EQ(plain.get("trace_mode").asString(), "materialized");

    const std::set<std::string> varying = {"wall_ms", "peak_rss_kb",
                                           "shared", "trace_mode"};
    ASSERT_EQ(canonical.members().size(), plain.members().size());
    for (std::size_t i = 0; i < plain.members().size(); ++i) {
        const auto &[key, value] = canonical.members()[i];
        ASSERT_EQ(key, plain.members()[i].first);
        if (varying.count(key) == 0) {
            EXPECT_EQ(value.dump(), plain.members()[i].second.dump())
                << key;
        }
    }
    EXPECT_EQ(canonical.get("wall_ms").asDouble(1.0), 0.0);
    EXPECT_EQ(canonical.get("peak_rss_kb").asInt(1), 0);
    EXPECT_TRUE(canonical.get("shared").isBool());
    EXPECT_FALSE(canonical.get("shared").asBool(true));
    EXPECT_EQ(canonical.get("trace_mode").asString(), "");
    EXPECT_EQ(canonical.get("stats").get("user_misses").asInt(), 42);
}

// ----------------------------------------------------------- registry

TEST(ExpRegistry, ResolvesGroupsAndDeduplicates)
{
    const auto all = resolveExperiments({"all"});
    EXPECT_EQ(all.size(), experimentRegistry().size());

    const auto figs = resolveExperiments({"figures", "figure3"});
    std::set<std::string> names;
    for (const Experiment *e : figs)
        names.insert(e->name);
    EXPECT_EQ(figs.size(), names.size()) << "no duplicates";
    EXPECT_EQ(figs.size(), 7u);
}

TEST(ExpRegistry, EveryExperimentIsWellFormed)
{
    for (const Experiment &e : experimentRegistry()) {
        EXPECT_FALSE(e.cells.empty()) << e.name;
        EXPECT_TRUE(e.render) << e.name;
        std::set<std::string> ids;
        bool smoke_found = false;
        for (const CellSpec &cell : e.cells) {
            EXPECT_TRUE(ids.insert(cell.id).second)
                << e.name << " duplicate cell id " << cell.id;
            smoke_found |= cell.id == e.smokeCell;
        }
        EXPECT_TRUE(smoke_found)
            << e.name << " smoke cell '" << e.smokeCell << "' not found";
    }
}

} // namespace
} // namespace oscache

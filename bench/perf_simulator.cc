/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: how fast
 * the library generates and replays traces.  These are the numbers a
 * downstream user sizing an experiment campaign cares about.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <vector>

#include "check/invariants.hh"
#include "common/version.hh"
#include "core/blockop/schemes.hh"
#include "core/hotspot/hotspot.hh"
#include "mem/memsys.hh"
#include "report/experiment.hh"
#include "sim/system.hh"
#include "synth/generator.hh"
#include "trace/io.hh"

using namespace oscache;

namespace
{

const Trace &
cachedTinyTrace()
{
    static const Trace trace = [] {
        WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
        p.quanta = 2;
        return generateTrace(p, CoherenceOptions::none());
    }();
    return trace;
}

void
BM_MemSystemRead(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::base();
    MemorySystem mem(cfg);
    AccessContext ctx;
    ctx.os = true;
    Cycles now = 0;
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 64) & 0xfffff;
        now = mem.read(0, 0x100000 + addr, now, ctx).completeAt;
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemSystemRead);

void
BM_MemSystemWrite(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::base();
    MemorySystem mem(cfg);
    AccessContext ctx;
    ctx.os = true;
    Cycles now = 0;
    Addr addr = 0;
    for (auto _ : state) {
        addr = (addr + 64) & 0xfffff;
        now = mem.write(0, 0x200000 + addr, now, ctx).completeAt;
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MemSystemWrite);

void
BM_DmaPageCopy(benchmark::State &state)
{
    MachineConfig cfg = MachineConfig::base();
    MemorySystem mem(cfg);
    BlockOp op;
    op.src = 0x100000;
    op.dst = 0x200000;
    op.size = 4096;
    op.kind = BlockOpKind::Copy;
    Cycles now = 0;
    for (auto _ : state) {
        now = mem.dmaBlockOp(0, op, now);
        benchmark::DoNotOptimize(now);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DmaPageCopy);

void
BM_TraceGeneration(benchmark::State &state)
{
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    p.quanta = unsigned(state.range(0));
    std::size_t records = 0;
    for (auto _ : state) {
        const Trace trace = generateTrace(p, CoherenceOptions::none());
        records = trace.totalRecords();
        benchmark::DoNotOptimize(records);
    }
    state.SetItemsProcessed(std::int64_t(records) * state.iterations());
}
BENCHMARK(BM_TraceGeneration)->Arg(1)->Arg(4);

void
BM_TraceReplay(benchmark::State &state)
{
    const Trace &trace = cachedTinyTrace();
    const SimOptions opts =
        WorkloadProfile::forKind(WorkloadKind::Trfd4).simOptions();
    for (auto _ : state) {
        SimStats stats;
        MemorySystem mem(MachineConfig::base());
        auto exec =
            makeBlockOpExecutor(BlockScheme::Base, mem, stats, opts);
        System system(trace, mem, *exec, opts, stats);
        system.run();
        benchmark::DoNotOptimize(stats.osMissTotal());
    }
    state.SetItemsProcessed(std::int64_t(trace.totalRecords()) *
                            state.iterations());
}
BENCHMARK(BM_TraceReplay);

void
BM_PrefetchStream(benchmark::State &state)
{
    const Trace &trace = cachedTinyTrace();
    HotspotPlan plan;
    plan.hotBlocks = {103, 110, 204};
    for (auto _ : state) {
        PrefetchStreamSource source(
            std::make_unique<MaterializedTraceSource>(trace), plan);
        std::size_t records = 0;
        for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu) {
            auto cursor = source.cursor(cpu);
            for (; cursor->peek() != nullptr; cursor->advance())
                ++records;
        }
        benchmark::DoNotOptimize(records);
    }
    state.SetItemsProcessed(std::int64_t(trace.totalRecords()) *
                            state.iterations());
}
BENCHMARK(BM_PrefetchStream);

/** A streambuf that counts the bytes it is given and keeps none. */
class DiscardBuf : public std::streambuf
{
  public:
    std::size_t bytes = 0;

  protected:
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        bytes += std::size_t(n);
        return n;
    }

    int_type
    overflow(int_type ch) override
    {
        ++bytes;
        return traits_type::not_eof(ch);
    }
};

/**
 * The binary trace writer alone: encode the TRFD_4 trace as chunked
 * v3 into a stream that discards it, so encoding and checksumming
 * are timed without the file system.
 */
void
BM_ChunkedTraceWrite(benchmark::State &state)
{
    const Trace &trace = cachedTinyTrace();
    std::size_t bytes = 0;
    for (auto _ : state) {
        DiscardBuf buf;
        std::ostream os(&buf);
        writeTraceChunked(os, trace);
        bytes = buf.bytes;
        benchmark::DoNotOptimize(bytes);
    }
    // A plain rate counter: this google-benchmark build reports 0 for
    // SetBytesProcessed()'s base-1024 counter.
    state.counters["bytes_per_second"] = benchmark::Counter(
        double(bytes) * double(state.iterations()),
        benchmark::Counter::kIsRate);
    state.SetItemsProcessed(std::int64_t(trace.totalRecords()) *
                            state.iterations());
}
BENCHMARK(BM_ChunkedTraceWrite);

/**
 * End-to-end cost of one experiment cell per workload: the cold cell
 * pays trace generation, warm cells replay the cached trace.  These
 * are the numbers that size an oscache-bench campaign, so they are
 * emitted machine-readable alongside the microbenchmarks.
 */
std::string
workloadTimingsJson(double &total_ms)
{
    std::ostringstream js;
    js << "[";
    bool first = true;
    for (WorkloadKind kind : allWorkloads) {
        clearTraceCache();
        using clock = std::chrono::steady_clock;
        const auto t0 = clock::now();
        runWorkload(kind, SystemKind::Base);
        const auto t1 = clock::now();
        runWorkload(kind, SystemKind::BlkDma);
        const auto t2 = clock::now();
        const double cold_ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        const double warm_ms =
            std::chrono::duration<double, std::milli>(t2 - t1).count();
        total_ms += cold_ms + warm_ms;
        js << (first ? "" : ",") << "\n    {\"workload\":\""
           << toString(kind) << "\",\"cold_cell_ms\":" << cold_ms
           << ",\"warm_cell_ms\":" << warm_ms << ",\"cells_per_sec\":"
           << (warm_ms > 0.0 ? 1000.0 / warm_ms : 0.0) << "}";
        first = false;
    }
    js << "\n  ]";
    return js.str();
}

/**
 * Replay throughput of the engine on the four full-workload traces —
 * the accesses/sec numbers the perf regression gate tracks.  Each
 * workload is replayed twice on the bare engine (no observer; the
 * production fast path) and twice with the coherence checker attached
 * (the default experiment-cell configuration); the faster of each
 * pair is reported, so one scheduling hiccup cannot fail the gate.
 */
std::string
replayThroughputJson()
{
    std::ostringstream js;
    js << "[";
    bool first = true;
    for (WorkloadKind kind : allWorkloads) {
        WorkloadProfile p = WorkloadProfile::forKind(kind);
        const Trace trace = generateTrace(p, CoherenceOptions::none());
        const SimOptions opts = p.simOptions();
        std::uint64_t accesses = 0;

        const auto replay_once = [&](bool checked) {
            SimStats stats;
            MemorySystem mem(MachineConfig::base());
            std::unique_ptr<CoherenceChecker> checker;
            if (checked) {
                checker = std::make_unique<CoherenceChecker>(mem.config());
                mem.setObserver(checker.get());
            }
            auto exec =
                makeBlockOpExecutor(BlockScheme::Base, mem, stats, opts);
            System system(trace, mem, *exec, opts, stats);
            using clock = std::chrono::steady_clock;
            const auto t0 = clock::now();
            system.run();
            const auto t1 = clock::now();
            accesses = stats.totalReads() + stats.userWrites +
                       stats.osWrites;
            return std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        };

        const double bare_ms =
            std::min(replay_once(false), replay_once(false));
        const double checked_ms =
            std::min(replay_once(true), replay_once(true));
        const std::uint64_t records = trace.totalRecords();
        const auto per_sec = [](std::uint64_t n, double ms) {
            return ms > 0.0 ? double(n) * 1000.0 / ms : 0.0;
        };
        js << (first ? "" : ",") << "\n    {\"workload\":\""
           << toString(kind) << "\",\"records\":" << records
           << ",\"accesses\":" << accesses
           << ",\"bare_ms\":" << bare_ms
           << ",\"accesses_per_sec\":" << per_sec(accesses, bare_ms)
           << ",\"records_per_sec\":" << per_sec(records, bare_ms)
           << ",\"checked_ms\":" << checked_ms
           << ",\"checked_accesses_per_sec\":"
           << per_sec(accesses, checked_ms) << "}";
        first = false;
    }
    js << "\n  ]";
    return js.str();
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--version") {
            std::printf("%s\n", versionString().c_str());
            return 0;
        }
    }

    // The default lands in the build tree: BENCH_perf.json in the repo
    // root is committed history, appended to by tools/bench_append.sh.
    const char *out_path = std::getenv("OSCACHE_BENCH_PERF_OUT");
    if (out_path == nullptr)
        out_path = OSCACHE_BENCH_PERF_DEFAULT_OUT;

    // Route the microbenchmark results through the library's JSON
    // file reporter (console display stays) so they can be embedded.
    const std::string micro_path = std::string(out_path) + ".micro";
    std::vector<char *> args(argv, argv + argc);
    std::string out_flag = "--benchmark_out=" + micro_path;
    std::string fmt_flag = "--benchmark_out_format=json";
    bool user_out = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0)
            user_out = true;
    if (!user_out) {
        args.push_back(out_flag.data());
        args.push_back(fmt_flag.data());
    }
    int bargc = int(args.size());
    benchmark::Initialize(&bargc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bargc, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();

    std::string micro_json = "{}";
    if (!user_out) {
        std::ifstream micro_in(micro_path);
        std::ostringstream buf;
        if (micro_in)
            buf << micro_in.rdbuf();
        // A filter that matches no benchmark leaves the file empty.
        if (!buf.str().empty())
            micro_json = buf.str();
        std::remove(micro_path.c_str());
    }

    double total_ms = 0.0;
    const std::string workloads = workloadTimingsJson(total_ms);
    const std::string replay = replayThroughputJson();

    std::ofstream out(out_path, std::ios::out | std::ios::trunc);
    out << "{\n  \"workloads\": " << workloads
        << ",\n  \"workload_total_ms\": " << total_ms
        << ",\n  \"replay\": " << replay
        << ",\n  \"micro\": " << micro_json << "}\n";
    std::printf("wrote %s (end-to-end: %.0f ms across %zu workloads)\n",
                out_path, total_ms, std::size(allWorkloads));

    benchmark::Shutdown();
    return 0;
}

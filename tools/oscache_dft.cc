/**
 * @file
 * oscache-dft: differential-testing and golden-regression driver.
 *
 * Two subcommands:
 *
 *   oscache-dft fuzz [--count N] [--seconds S] [--seed-base B] [--jobs J]
 *       Generate N seeded adversarial traces (or keep generating fresh
 *       seeds until S seconds of wall clock have elapsed) and replay
 *       each one through both the full timing engine and the
 *       independent reference simulator, failing on the first
 *       divergence.  Every case is a pure function of its seed, which
 *       is printed on failure; re-run with --seed-base <seed>
 *       --count 1 to reproduce.
 *
 *   oscache-dft golden (--bless | --check) [--file F] [--jobs J]
 *       Run every registered experiment's smoke cell and either bless
 *       the normalized results into the golden file or compare against
 *       it, printing a line-level diff on drift.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/args.hh"
#include "common/log.hh"
#include "common/version.hh"
#include "core/blockop/schemes.hh"
#include "core/cohopt.hh"
#include "dft/differ.hh"
#include "dft/fuzz.hh"
#include "dft/golden.hh"
#include "sample/cursor.hh"
#include "sample/plan.hh"
#include "synth/generator.hh"
#include "synth/profile.hh"
#include "trace/source.hh"

using namespace oscache;
using namespace oscache::dft;

namespace
{

void
usage()
{
    std::printf(
        "usage: oscache-dft fuzz [options]\n"
        "       oscache-dft workloads [--jobs J]\n"
        "       oscache-dft sampled [--jobs J] [--plan P]\n"
        "       oscache-dft golden (--bless | --check) [options]\n"
        "\n"
        "workloads: replay each of the paper's four synthetic\n"
        "workloads (full length) through the engine and the reference\n"
        "oracle simultaneously, failing on the first divergence.\n"
        "\n"
        "sampled: the same differential replay, but through a\n"
        "SMARTS-style sampling cursor — the oracle then checks every\n"
        "warm and measured record the sampled engine actually\n"
        "replays, proving the fast-forward machinery never corrupts\n"
        "the memory-system state the windows measure.\n"
        "\n"
        "fuzz options:\n"
        "  --count N      number of seeded traces (default 200)\n"
        "  --seconds S    instead of a fixed count, run fresh seeds\n"
        "                 until S seconds of wall clock have passed\n"
        "  --seed-base B  first seed (default 1; --seconds mode\n"
        "                 defaults to the current time)\n"
        "  --jobs J       worker threads (default 1)\n"
        "  --quiet        no progress lines\n"
        "\n"
        "golden options:\n"
        "  --bless        (re-)write the golden file from this build\n"
        "  --check        compare this build against the golden file\n"
        "  --file F       golden file (default tests/golden/cells.jsonl)\n"
        "  --scratch B    results scratch base (default\n"
        "                 oscache_dft_golden)\n"
        "  --jobs J       worker threads (default 1)\n");
}

int
runFuzz(std::uint64_t seed_base, std::uint64_t count, double seconds,
        unsigned jobs, bool quiet)
{
    using clock = std::chrono::steady_clock;
    const bool timed = seconds > 0;
    const auto deadline =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(seconds));

    std::atomic<std::uint64_t> next{0};
    std::atomic<std::uint64_t> done{0};
    std::atomic<std::uint64_t> total_records{0};
    std::atomic<bool> failed{false};
    std::mutex report_mutex;
    std::vector<FuzzReport> failures;

    const auto worker = [&]() {
        for (;;) {
            if (failed.load(std::memory_order_relaxed))
                return;
            const std::uint64_t index =
                next.fetch_add(1, std::memory_order_relaxed);
            if (timed) {
                if (clock::now() >= deadline)
                    return;
            } else if (index >= count) {
                return;
            }
            const FuzzReport report = fuzzOne(seed_base + index);
            total_records.fetch_add(report.records,
                                    std::memory_order_relaxed);
            const std::uint64_t n =
                done.fetch_add(1, std::memory_order_relaxed) + 1;
            if (report.diff.diverged) {
                failed.store(true, std::memory_order_relaxed);
                std::lock_guard<std::mutex> lock(report_mutex);
                failures.push_back(report);
                return;
            }
            if (!quiet && n % 250 == 0) {
                std::printf("  %llu traces, no divergence\n",
                            (unsigned long long)n);
                std::fflush(stdout);
            }
        }
    };

    std::vector<std::thread> threads;
    for (unsigned t = 1; t < jobs; ++t)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();

    for (const FuzzReport &report : failures) {
        std::printf("FAIL: divergence at seed %llu (scheme %s, "
                    "%zu records)\n%s\n",
                    (unsigned long long)report.seed,
                    toString(report.scheme), report.records,
                    report.diff.report.c_str());
        std::printf("reproduce with: oscache-dft fuzz --seed-base %llu "
                    "--count 1\n",
                    (unsigned long long)report.seed);
    }
    if (!failures.empty())
        return 1;

    std::printf("fuzz: %llu traces (%llu records) engine vs oracle, "
                "0 divergences\n",
                (unsigned long long)done.load(),
                (unsigned long long)total_records.load());
    return 0;
}

int
runWorkloads(unsigned jobs)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex print_mutex;
    constexpr std::size_t n =
        sizeof(allWorkloads) / sizeof(allWorkloads[0]);

    const auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            const WorkloadKind kind = allWorkloads[i];
            Trace trace =
                generateTrace(kind, CoherenceOptions::none());
            MaterializedTraceSource source(trace);
            const MachineConfig machine;
            const SimOptions options;
            const DiffResult diff =
                runDiff(source, machine, options, BlockScheme::Base);
            std::lock_guard<std::mutex> lock(print_mutex);
            if (diff.diverged) {
                failed.store(true, std::memory_order_relaxed);
                std::printf("FAIL: %s diverged\n%s\n", toString(kind),
                            diff.report.c_str());
            } else {
                std::printf("  %-10s %llu events checked, engine == "
                            "oracle\n",
                            toString(kind),
                            (unsigned long long)diff.eventsChecked);
                std::fflush(stdout);
            }
        }
    };

    std::vector<std::thread> threads;
    for (unsigned t = 1; t < jobs && t < n; ++t)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();

    if (failed.load())
        return 1;
    std::printf("workloads: %zu full workloads, engine vs oracle, "
                "0 divergences\n",
                n);
    return 0;
}

/** Phase-only controller: classify from the cursor, collect nothing. */
class PlanController final : public SampleController
{
  public:
    PlanController(sample::SampledTraceSource &sampled_source,
                   const sample::SamplingPlan &sampling_plan)
        : src(sampled_source), plan(sampling_plan)
    {}

    SamplePhase
    phaseFor(CpuId cpu) override
    {
        return src.cursorFor(cpu)->phase();
    }

    Cycles spinBreakCycles() const override { return plan.spinBreak; }

  private:
    sample::SampledTraceSource &src;
    sample::SamplingPlan plan;
};

int
runSampledWorkloads(unsigned jobs, const sample::SamplingPlan &plan)
{
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex print_mutex;
    constexpr std::size_t n =
        sizeof(allWorkloads) / sizeof(allWorkloads[0]);

    const auto worker = [&]() {
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            const WorkloadKind kind = allWorkloads[i];
            Trace trace =
                generateTrace(kind, CoherenceOptions::none());
            MaterializedTraceSource inner(trace);
            sample::SampledTraceSource source(inner, plan);
            PlanController controller(source, plan);
            const MachineConfig machine;
            const SimOptions options;
            const DiffResult diff = runDiff(source, machine, options,
                                            BlockScheme::Base,
                                            &controller);
            std::lock_guard<std::mutex> lock(print_mutex);
            if (diff.diverged) {
                failed.store(true, std::memory_order_relaxed);
                std::printf("FAIL: %s diverged under sampling\n%s\n",
                            toString(kind), diff.report.c_str());
            } else {
                std::printf("  %-10s %llu sampled-replay events "
                            "checked, engine == oracle\n",
                            toString(kind),
                            (unsigned long long)diff.eventsChecked);
                std::fflush(stdout);
            }
        }
    };

    std::vector<std::thread> threads;
    for (unsigned t = 1; t < jobs && t < n; ++t)
        threads.emplace_back(worker);
    worker();
    for (std::thread &t : threads)
        t.join();

    if (failed.load())
        return 1;
    std::printf("sampled: %zu workloads under plan %s, engine vs "
                "oracle, 0 divergences\n",
                n, plan.describe().c_str());
    return 0;
}

int
runGolden(bool bless, const std::string &file, const std::string &scratch,
          unsigned jobs)
{
    const std::vector<std::string> current =
        collectGoldenLines(scratch, jobs);
    if (bless) {
        writeGoldenFile(file, current);
        std::printf("golden: blessed %zu cell rows into %s\n",
                    current.size(), file.c_str());
        return 0;
    }

    std::vector<std::string> blessed;
    std::string error;
    if (!readGoldenFile(file, blessed, &error)) {
        std::printf("FAIL: %s\n", error.c_str());
        return 1;
    }
    const GoldenDiff diff = compareGolden(blessed, current);
    if (!diff.matches) {
        std::printf("FAIL: %s\n", diff.report.c_str());
        return 1;
    }
    std::printf("golden: %zu cell rows match %s\n", current.size(),
                file.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage();
        return 1;
    }
    const std::string command = argv[1];
    if (command == "--help" || command == "-h") {
        usage();
        return 0;
    }
    if (command == "--version") {
        std::printf("%s\n", versionString().c_str());
        return 0;
    }

    std::uint64_t count = 200;
    std::uint64_t seed_base = 1;
    bool seed_base_set = false;
    double seconds = 0;
    unsigned jobs = 1;
    bool quiet = false;
    bool bless = false;
    bool check = false;
    std::string file = "tests/golden/cells.jsonl";
    std::string scratch = "oscache_dft_golden";
    std::string plan_text = "period=50k,measure=2k,warmup=6k";

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", arg);
            return argv[++i];
        };
        if (arg == "--count") {
            count = std::strtoull(value().c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            seconds = std::strtod(value().c_str(), nullptr);
        } else if (arg == "--seed-base") {
            seed_base = std::strtoull(value().c_str(), nullptr, 10);
            seed_base_set = true;
        } else if (arg == "--jobs" || arg == "-j") {
            jobs = unsigned(parseUnsignedFlag(arg, value(), 1, maxJobs));
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--bless") {
            bless = true;
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--file") {
            file = value();
        } else if (arg == "--scratch") {
            scratch = value();
        } else if (arg == "--plan") {
            plan_text = value();
        } else {
            usage();
            fatal("unknown option ", arg);
        }
    }

    if (command == "fuzz") {
        if (seconds > 0 && !seed_base_set)
            seed_base = std::uint64_t(std::time(nullptr));
        return runFuzz(seed_base, count, seconds, jobs, quiet);
    }
    if (command == "workloads")
        return runWorkloads(jobs == 1 ? 4 : jobs);
    if (command == "sampled")
        return runSampledWorkloads(jobs == 1 ? 4 : jobs,
                                   sample::SamplingPlan::parse(plan_text));
    if (command == "golden") {
        if (bless == check)
            fatal("golden: pass exactly one of --bless / --check");
        return runGolden(bless, file, scratch, jobs);
    }
    usage();
    fatal("unknown command ", command);
}

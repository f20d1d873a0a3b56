/**
 * @file
 * oscache-perfbench: runs one benchmark workload and prints its raw
 * measurements as one JSON object on the last line of stdout.
 *
 *   oscache-perfbench --workload W --scratch DIR --expected FILE
 *                     [--seed N] [--seconds S] [--trace 0|1]
 *                     [--jobs N] [--write-expected FILE]
 *
 * perfbench/run.py builds this program, calls it, and turns the raw
 * measurements into the benchmark's metrics.  The exit status is 0
 * only when every operation passed its checks.
 */

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hh"

namespace oscache
{
namespace perfbench
{
namespace
{

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "oscache-perfbench: " << message
              << "\nsee the header of perfbench/main.cc for usage\n";
    std::exit(2);
}

std::unique_ptr<Workload>
makeWorkload(const Options &options, Expectations &expected)
{
    if (options.workload == "paper_warm")
        return makePaperWarm(options, expected);
    if (options.workload == "numa_cold")
        return makeNumaCold(options, expected);
    if (options.workload == "long_stream")
        return makeLongStream(options, expected);
    usage("unknown workload '" + options.workload + "'");
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

int
run(const Options &options)
{
    Expectations expected;
    if (!options.writeExpectedPath.empty()) {
        expected.startRecording();
    } else {
        std::string error;
        if (!expected.load(options.expectedPath, &error))
            usage(error);
    }
    std::filesystem::create_directories(options.scratch);
    std::unique_ptr<Workload> workload = makeWorkload(options, expected);

    Verdict verdict;
    // setup_s is the median of several set-ups; the traced run needs
    // one set-up to feed the layers.
    const unsigned setup_reps = options.trace ? 1 : 3;
    Json setup = Json::array();
    for (unsigned i = 0; i < setup_reps; ++i) {
        const Stopwatch watch;
        workload->setup();
        setup.push(number(watch.seconds()));
    }

    Json reps = Json::array();
    Json layers = Json::object();
    if (options.trace) {
        workload->traced(verdict, layers);
    } else {
        // Closed loop: repeat the timed part until the budget is
        // spent, always at least once.
        const Stopwatch budget;
        do {
            const RepSample s = workload->rep(verdict);
            Json rep = Json::object();
            rep.set("wall_s", number(s.wallS));
            rep.set("cpu_s", number(s.cpuS));
            rep.set("peak_rss_mb", number(s.peakRssMb));
            rep.set("accesses", number(double(s.accesses)));
            reps.push(rep);
        } while (budget.seconds() < options.seconds);
    }

    if (!options.writeExpectedPath.empty() &&
        !expected.save(options.writeExpectedPath))
        usage("cannot write '" + options.writeExpectedPath + "'");

    Json failures = Json::array();
    for (const std::string &message : verdict.messages())
        failures.push(message);
    Json out = Json::object();
    out.set("workload", options.workload);
    out.set("seed", std::to_string(options.seed));
    out.set("jobs", options.jobs);
    out.set("compiler", compilerName());
    out.set("build_flavor", OSCACHE_PERFBENCH_FLAVOR);
    out.set("attempted", number(double(verdict.attempted())));
    out.set("failed", number(double(verdict.failed())));
    out.set("failures", failures);
    out.set("setup_s", setup);
    out.set("reps", reps);
    out.set("layers", layers);
    out.set("extra", workload->extra());
    std::cout << out.dump() << std::endl;
    return verdict.failed() == 0 && verdict.attempted() > 0 ? 0 : 1;
}

unsigned long long
parseCount(const std::string &flag, const std::string &text)
{
    try {
        std::size_t used = 0;
        const unsigned long long value = std::stoull(text, &used);
        if (used == text.size())
            return value;
    } catch (const std::exception &) {
    }
    usage(flag + " needs a whole number, got '" + text + "'");
}

} // namespace
} // namespace perfbench
} // namespace oscache

int
main(int argc, char **argv)
{
    using namespace oscache::perfbench;
    Options options;
    options.jobs =
        std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = parseCount(flag, value);
        else if (flag == "--seconds")
            options.seconds = double(parseCount(flag, value));
        else if (flag == "--trace")
            options.trace = parseCount(flag, value) != 0;
        else if (flag == "--jobs")
            options.jobs = unsigned(std::max(1ULL, parseCount(flag, value)));
        else if (flag == "--scratch")
            options.scratch = value;
        else if (flag == "--expected")
            options.expectedPath = value;
        else if (flag == "--write-expected")
            options.writeExpectedPath = value;
        else
            usage("unknown option " + flag);
    }
    if (options.scratch.empty())
        usage("--scratch is required");
    if (options.workload.empty())
        usage("--workload is required");
    return run(options);
}

/**
 * @file
 * Shared pieces of the benchmark driver: host measurements, the
 * pinned-result gate, and the per-workload interface.
 *
 * Everything here is measured from outside the simulator: the
 * driver times calls into the libraries' public functions and never
 * instruments code under src/.
 */

#ifndef OSCACHE_PERFBENCH_BENCH_HH
#define OSCACHE_PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.hh"
#include "exp/registry.hh"

namespace oscache
{
namespace perfbench
{

/** Command-line knobs of one benchmark process. */
struct Options
{
    std::string workload;
    /** Benchmark seed; defaultSeed keeps the calibrated profiles. */
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    unsigned jobs = 1;
    /** Scratch directory the run may fill and must leave behind. */
    std::string scratch;
    /** Pinned canonical-row digests. */
    std::string expectedPath;
    /** When set, write the digests observed instead of checking. */
    std::string writeExpectedPath;
};

/** The seed under which every pinned digest was recorded. */
inline constexpr std::uint64_t defaultSeed = 1;

/** Wall-clock stopwatch on the steady clock. */
class Stopwatch
{
  public:
    Stopwatch() : start(std::chrono::steady_clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

  private:
    std::chrono::steady_clock::time_point start;
};

/**
 * CPU seconds of the calling thread since construction.  Per-layer
 * self times use it, so a layer call preempted by other work on the
 * host is not charged for the wait.
 */
class CpuTimer
{
  public:
    CpuTimer() : start(threadCpuSeconds()) {}

    double seconds() const { return threadCpuSeconds() - start; }

  private:
    static double threadCpuSeconds();

    double start;
};

/** User plus system CPU seconds of this process, all threads. */
double processCpuSeconds();

/**
 * Return freed heap to the kernel and restart the kernel's resident
 * high-water mark, so peakRssMb() covers only what follows.
 */
void resetPeakRss();

/** Resident high-water mark since the last resetPeakRss(), in MiB. */
double peakRssMb();

/**
 * FNV-1a 64 of @p text as 16 hex digits.  Kept apart from
 * exp/hash.hh, so that a change to the artifact store's key hash
 * cannot invalidate every pinned row at once.
 */
std::string digestHex(const std::string &text);

/**
 * Digest of @p result as a canonical result row (run-to-run fields
 * zeroed, see ResultRow::canonical) under the given identity.
 */
std::string canonicalDigest(const std::string &experiment,
                            const std::string &cell,
                            const CellOutcome &outcome);

/** Reads plus writes in @p stats. */
std::uint64_t simulatedAccesses(const SimStats &stats);

/**
 * Operation bookkeeping: each operation is attempted once and fails
 * when any of its checks fails.  Keeps the first few messages.
 * record() may be called from pool jobs; read the counts after them.
 */
class Verdict
{
  public:
    /** Count one operation; @p failure empty means it passed. */
    void record(const std::string &failure);

    std::uint64_t attempted() const { return tried; }
    std::uint64_t failed() const { return bad; }
    const std::vector<std::string> &messages() const { return notes; }

  private:
    std::mutex mutex;
    std::uint64_t tried = 0;
    std::uint64_t bad = 0;
    std::vector<std::string> notes;
};

/**
 * The pinned-result gate: canonical-row digests keyed by
 * "<workload> <experiment>:<cell>", one "key digest" pair per line.
 * In record mode (see Options::writeExpectedPath) it collects the
 * observed digests instead and compares nothing.
 */
class Expectations
{
  public:
    /** Load @p path; false with @p error on a malformed file. */
    bool load(const std::string &path, std::string *error);

    /** Collect instead of compare. */
    void startRecording() { recording = true; }

    /**
     * Compare @p digest with the pin for @p key.  Returns an empty
     * string on a match (or in record mode), else the failure.
     */
    std::string check(const std::string &key, const std::string &digest);

    /** Write the recorded digests to @p path; false on I/O failure. */
    bool save(const std::string &path) const;

  private:
    std::map<std::string, std::string> pinned;
    std::map<std::string, std::string> observed;
    bool recording = false;
};

/** One measured repetition of a workload's timed part. */
struct RepSample
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double peakRssMb = 0.0;
    std::uint64_t accesses = 0;
};

/**
 * One benchmark workload.  setup() is the untimed preparation and
 * may be repeated; rep() runs and checks one timed repetition;
 * traced() runs the timed part once more with per-cell spans and
 * then the per-layer accounting pass.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    virtual void setup() = 0;

    /** One timed repetition; checks its results into @p verdict. */
    virtual RepSample rep(Verdict &verdict) = 0;

    /**
     * The traced run: one timed repetition with per-cell spans between
     * two untraced ones, then the per-layer accounting.  Fills
     * @p layers with every per-layer metric (zero where the layer does
     * no work on this workload).
     */
    virtual void traced(Verdict &verdict, Json &layers) = 0;

    /** Informational results of the last repetition (not metrics). */
    virtual Json extra() const = 0;
};

std::unique_ptr<Workload> makePaperWarm(const Options &options,
                                        Expectations &expected);
std::unique_ptr<Workload> makeNumaCold(const Options &options,
                                       Expectations &expected);
std::unique_ptr<Workload> makeLongStream(const Options &options,
                                         Expectations &expected);

/** JSON number, or null when @p value is not finite. */
Json number(double value);

} // namespace perfbench
} // namespace oscache

#endif // OSCACHE_PERFBENCH_BENCH_HH

/**
 * @file
 * The experiment driver: takes a set of registry entries and runs
 * their cells on the work-stealing pool as a dependency graph.
 *
 * Scheduling unit is the *deduplicated* cell: cells from different
 * experiments carrying the same sharedKey (e.g. the Base runs that
 * five figures all need) become one graph node whose outcome is
 * shared.  Each experiment's render is a graph node depending on all
 * nodes that feed it, so rendering overlaps with the remaining
 * simulation work; rendered text is buffered per experiment and
 * presented in registry order, keeping the output deterministic
 * regardless of completion order.
 */

#ifndef OSCACHE_EXP_DRIVER_HH
#define OSCACHE_EXP_DRIVER_HH

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "exp/registry.hh"
#include "report/experiment.hh"
#include "sample/plan.hh"

namespace oscache
{

class TraceStore;
class Timeline;

/** Knobs for one driver invocation. */
struct DriverOptions
{
    /** Worker threads for the scheduling pool. */
    unsigned jobs = 1;
    /** Run only each experiment's smoke cell; skip the renders. */
    bool smoke = false;
    /** Persistent trace store to install, or nullptr for none. */
    TraceStore *store = nullptr;
    /**
     * Pull records through streaming cursors instead of materializing
     * whole traces: cells synthesize on demand (or stream from the
     * store's chunked artifacts when one is installed), so peak
     * memory is bounded by jobs x cursor buffers.
     */
    bool stream = false;
    /** Per-processor cursor read-ahead (records) for file sources. */
    std::size_t streamBufferRecords = defaultStreamReadAhead;
    /** In-memory trace-cache cap in bytes (0 = unbounded). */
    std::size_t traceCacheBytes = defaultTraceCacheBytes;
    /** Results sink base path ("x" -> x.jsonl + x.csv); empty = off. */
    std::string resultsBase;
    /**
     * Emit canonical result rows (run-to-run fields zeroed; see
     * ResultRow::canonical) — comparable byte-for-byte against any
     * other run of the same cells, whatever its job count or cache
     * state.
     */
    bool canonicalResults = false;
    /**
     * Replay every cell under this SMARTS-style sampling plan
     * instead of in full (hot-spot-prefetch cells excepted; they
     * need complete profiles).  Cells then carry a SampleReport and
     * the results sink emits confidence-interval columns.
     */
    std::optional<sample::SamplingPlan> samplePlan;
    /**
     * Progress callback, called once per finished graph node with a
     * human-readable label.  Invoked from worker threads; must be
     * thread-safe.  Empty = silent.
     */
    std::function<void(const std::string &)> progress;
    /**
     * Optional scheduler timeline: each finished cell is recorded as
     * a wall-clock span (microseconds since the driver started, one
     * lane per worker thread).  The driver serializes its record()
     * calls; the caller owns the object and exports it afterwards.
     */
    Timeline *timeline = nullptr;
};

/** One experiment's results. */
struct ExperimentReport
{
    const Experiment *experiment = nullptr;
    /** The rendered report text (empty in smoke mode). */
    std::string rendered;
    /** Outcome of every cell that ran, keyed by cell id. */
    std::map<std::string, CellOutcome> outcomes;
};

/** Everything one driver invocation produced. */
struct DriverReport
{
    /** Requested experiments, in registry order. */
    std::vector<ExperimentReport> experiments;
    /** Cells actually simulated. */
    unsigned cellsRun = 0;
    /** Cells satisfied by another cell's identical outcome. */
    unsigned cellsShared = 0;
    /** Sum of per-cell wall-clock (CPU work, not elapsed time). */
    double totalCellMs = 0.0;
    /** Trace-cache counters accumulated during the run. */
    TraceCacheStats traceStats;
};

/**
 * Run @p experiments under @p options and return the collected
 * outcomes and rendered reports.  Installs (and afterwards removes)
 * the persistence hooks when options.store is set; resets the
 * trace-cache counters at entry so traceStats describes this run.
 * Rethrows the first cell failure after the graph drains.
 */
DriverReport runExperiments(
    const std::vector<const Experiment *> &experiments,
    const DriverOptions &options);

} // namespace oscache

#endif // OSCACHE_EXP_DRIVER_HH

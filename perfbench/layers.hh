/**
 * @file
 * Per-layer accounting by timing public calls.
 *
 * A layer that is reachable only inside another call is costed as the
 * difference between that call with and without the layer on the
 * same input: the checker is a checked System::run minus a bare one,
 * the hot-spot pass is a BCPref runOnTrace minus the same setup with
 * the pass off.  Totals are sums of per-call durations, so calls made
 * concurrently on a pool add up like the driver's per-cell times.
 */

#ifndef OSCACHE_PERFBENCH_LAYERS_HH
#define OSCACHE_PERFBENCH_LAYERS_HH

#include <mutex>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/runner.hh"
#include "core/system_config.hh"
#include "exp/driver.hh"
#include "obs/timeline.hh"

namespace oscache
{
namespace perfbench
{

/** Every per-layer figure one traced run reports. */
struct Layers
{
    /** @name synth @{ */
    double synthS = 0.0;
    double synthRecords = 0.0;
    /** @} */
    /** @name trace @{ */
    double openS = 0.0;
    double decodeS = 0.0;
    double decodeRecords = 0.0;
    double writeS = 0.0;
    /** @} */
    /** @name exp @{ */
    double storeLoadS = 0.0;
    double storeSaveS = 0.0;
    double storeBytes = 0.0;
    double cellsRun = 0.0;
    double cellsShared = 0.0;
    double longestCellS = 0.0;
    double workerBusyFrac = 0.0;
    double sinkS = 0.0;
    /** @} */
    /** @name report @{ */
    TraceCacheStats traceCache;
    double renderS = 0.0;
    double figure3Mae = 0.0;
    double figure2Mae = 0.0;
    /** @} */
    /** @name core @{ */
    double hotspotS = 0.0;
    double hotspotCoverageSum = 0.0;
    double hotspotCells = 0.0;
    /** @} */
    /** @name sim @{ */
    double replayS = 0.0;
    double bareAccesses = 0.0;
    /** @} */
    /** @name mem (simulated) @{ */
    double osMissTotal = 0.0;
    double busBusyCycles = 0.0;
    double busCapacityCycles = 0.0;
    double linkTransactions = 0.0;
    double snoopsFiltered = 0.0;
    double snoopsForwarded = 0.0;
    /** @} */
    /** @name check @{ */
    double checkedS = 0.0;
    double auditS = 0.0;
    double transitions = 0.0;
    /** @} */

    /** Guards every field while pool jobs add to them. */
    std::mutex mutex;

    /** Fold one simulated run's interconnect and miss counts in. */
    void addMem(const RunResult &result, unsigned num_cpus);

    /**
     * The per-layer metrics as JSON, with @p unattributed_s (cell time
     * the layers above do not explain) and the tracing overhead.
     */
    Json toJson(double unattributed_s, double tracing_overhead) const;
};

/** One deduplicated standard cell: the work the driver runs once. */
struct UnitSpec
{
    WorkloadKind workload = WorkloadKind::Trfd4;
    SystemKind system = SystemKind::Base;
    MachineConfig machine = MachineConfig::base();
    /** TraceStore::keyFor of the trace the unit replays. */
    std::string storeKey;
};

/**
 * The standard (runWorkload) cells of @p experiments, deduplicated
 * on their shared key as the driver does.  Custom cells are skipped:
 * their bodies are opaque and their time stays unattributed.
 */
std::vector<UnitSpec>
standardUnits(const std::vector<const Experiment *> &experiments);

/** The (workload, coherence options, cpus) traces @p units replay. */
struct TraceKey
{
    WorkloadKind workload = WorkloadKind::Trfd4;
    CoherenceOptions coherence = CoherenceOptions::none();
    unsigned numCpus = 4;
    std::string storeKey;
};
std::vector<TraceKey> traceKeys(const std::vector<UnitSpec> &units);

/**
 * Replay one source bare, then checked, timing System::run each time
 * and auditFull separately, into @p layers.  @p open must return a
 * fresh source over the same records on every call.  Returns a
 * checker finding, or a note that bare and checked statistics differ;
 * empty when the replay is clean.  Safe to call concurrently.
 */
std::string accountReplay(const TraceSourceFactory &open,
                          const MachineConfig &machine,
                          const SimOptions &options, BlockScheme scheme,
                          Layers &layers);

/**
 * core.hotspot: time runOnTrace with @p setup and with its hot-spot
 * pass off; adds the difference and the plan's coverage.
 */
void accountHotspot(const Trace &trace, const MachineConfig &machine,
                    const SimOptions &options, const SystemSetup &setup,
                    Layers &layers);

/** Time every experiment's render over @p report's outcomes. */
void accountRender(const DriverReport &report, Layers &layers);

/**
 * Time recording every row of @p report through a ResultsSink at
 * @p base (the sink the driver feeds under --results).
 */
void accountSink(const DriverReport &report, const std::string &base,
                 Layers &layers);

/**
 * Copy the driver's own counters of a traced repetition: cells run
 * and shared, the per-cell spans of @p timeline, trace-cache counts.
 */
void accountDriver(const DriverReport &report, const Timeline &timeline,
                   double wall_s, unsigned jobs, Layers &layers);

/** Fold the mem counts of every computed unit of @p report. */
void accountOutcomes(const DriverReport &report, Layers &layers);

/** Simulated reads + writes of the cells the driver computed. */
std::uint64_t computedAccesses(const DriverReport &report);

/**
 * Mean absolute error of Figure 3 (normalized OS time) and Figure 2
 * (normalized remaining OS misses) against the paper's rows; zero
 * when @p report lacks those experiments.
 */
struct PaperError
{
    double figure3 = 0.0;
    double figure2 = 0.0;
};
PaperError paperError(const DriverReport &report);

} // namespace perfbench
} // namespace oscache

#endif // OSCACHE_PERFBENCH_LAYERS_HH

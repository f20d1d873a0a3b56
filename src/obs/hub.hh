/**
 * @file
 * The observability hub: one object that plugs the metrics registry,
 * event timeline, miss profiler, and bus/buffer monitors into a
 * simulation run.
 *
 * ObsHub implements both observer interfaces of the memory system —
 * MemEventObserver (per-access, coherence, and block-operation
 * events) and BusProbe (per-grant bus events) — and fans each event
 * out to whichever components the run's ObsOptions enabled.  The
 * runner attaches it next to the coherence checker through the memory
 * system's flat observer fan-out (MemorySystem::setObservers), so
 * verification and observation coexist without an extra hop.
 *
 * When the run finishes, finish() freezes everything into an
 * immutable ObsReport that outlives the hub (RunResult carries it by
 * shared_ptr through the experiment scheduler's result plumbing).
 */

#ifndef OSCACHE_OBS_HUB_HH
#define OSCACHE_OBS_HUB_HH

#include <memory>

#include "mem/bus.hh"
#include "mem/observer.hh"
#include "obs/busmon.hh"
#include "obs/metrics.hh"
#include "obs/options.hh"
#include "obs/profiler.hh"
#include "obs/timeline.hh"

namespace oscache
{

/** Immutable end-of-run observability artifact. */
struct ObsReport
{
    /** The (effective) options the run observed under. */
    ObsOptions options;

    /** Merged metrics; empty unless options.metrics. */
    MetricsSnapshot metrics;

    /** Miss-attribution tables; empty unless options.profiler. */
    MissProfiler profiler;

    /** @name Bus/buffer windows; empty unless options.busWindows @{ */
    Cycles windowCycles = 0;
    std::vector<WindowedSeries::Window> busOccupancy;
    std::vector<WindowedSeries::Window> writeBufferDepth;
    /** Inter-socket link occupancy; empty on a flat machine. */
    std::vector<WindowedSeries::Window> linkOccupancy;
    /** @} */

    /** The event ring; empty unless options.timeline. */
    Timeline timeline{0};
};

/**
 * The hub.  Construct with *effective* options (see
 * effectiveObsOptions), attach to the memory system and bus, run,
 * then call finish() exactly once.
 */
class ObsHub : public MemEventObserver, public BusProbe
{
  public:
    explicit ObsHub(const ObsOptions &options);

    /** @name MemEventObserver @{ */
    bool wantsAccessEvents() const override;
    void onAccess(const MemAccessEvent &event) override;
    void onBlockOp(CpuId cpu, const BlockOp &op, Cycles start,
                   Cycles end) override;
    void onL2Transition(CpuId cpu, Addr l2_line, LineState from,
                        LineState to) override;
    void onL1Fill(CpuId cpu, Addr l1_line) override;
    void onL1Drop(CpuId cpu, Addr l1_line) override;
    void onOperationEnd(const MemorySystem &mem, MemOpKind op, CpuId cpu,
                        Addr addr) override;
    /** @} */

    /** @name BusProbe @{ */
    void onBusAcquire(BusTxn kind, Cycles requested, Cycles grant,
                      Cycles occupancy, std::uint32_t bytes) override;
    /** @} */

    /**
     * Probe for the inter-socket link.  A Bus carries one probe and
     * no channel id, so the link attaches through this adapter while
     * the socket buses attach the hub itself; link grants land in
     * their own metrics, occupancy series, and timeline lane.  The
     * link counters are registered on first request — call before the
     * run starts (the registry freezes at the first record), so flat
     * machines never see them and their snapshots stay unchanged.
     */
    BusProbe *linkProbe();

    /** Link-grant intake (via linkProbe(); public for the adapter). */
    void onLinkAcquire(BusTxn kind, Cycles requested, Cycles grant,
                       Cycles occupancy, std::uint32_t bytes);

    /**
     * Point the hub at the memory system it observes, enabling
     * write-buffer-depth sampling (the observer callbacks carry no
     * back-pointer on the per-access path).  Optional.
     */
    void setMemorySystem(const MemorySystem *m) { memsys = m; }

    /**
     * Gate event intake.  While disabled, every observer callback
     * returns immediately, so a sampled run can restrict metrics,
     * timeline, and profiler attribution to measured windows (the
     * warm-up traffic would otherwise drown them).  finish() is
     * unaffected.
     */
    void setEnabled(bool on) { enabled = on; }

    /** @name Mid-run inspection (tests) @{ */
    const ObsOptions &options() const { return opts; }
    MetricsRegistry &registry() { return metrics; }
    Timeline &eventTimeline() { return timeline; }
    const MissProfiler &missProfiler() const { return profiler; }
    /** @} */

    /**
     * Freeze the run's observations into an immutable report.  The
     * hub is spent afterwards (its timeline has been moved out).
     */
    std::shared_ptr<const ObsReport> finish();

  private:
    /** Forwards the link Bus's grants to onLinkAcquire. */
    struct LinkTap : BusProbe
    {
        explicit LinkTap(ObsHub &h) : hub(h) {}
        void
        onBusAcquire(BusTxn kind, Cycles requested, Cycles grant,
                     Cycles occupancy, std::uint32_t bytes) override
        {
            hub.onLinkAcquire(kind, requested, grant, occupancy, bytes);
        }
        ObsHub &hub;
    };

    /** True on every samplePeriod-th call (always true for period 1). */
    bool sampleTick();

    ObsOptions opts;
    bool enabled = true;
    const MemorySystem *memsys = nullptr;
    MetricsRegistry metrics;
    Timeline timeline;
    MissProfiler profiler;
    WindowedSeries busOccupancy;
    WindowedSeries writeBufferDepth;
    WindowedSeries linkOccupancy;
    LinkTap linkTap{*this};
    /** True once linkProbe() registered the link counters. */
    bool linkMetricsReady = false;

    /** Rolling event count driving samplePeriod decimation. */
    std::uint64_t sampleSeq = 0;

    /**
     * Grant time of the last bus transaction — the timestamp proxy
     * for coherence transitions, whose callback carries no cycle.
     */
    Cycles approxNow = 0;

    /** @name Metric handles (registered in the constructor) @{ */
    Counter cReads, cWrites, cPrefetchIssued, cPrefetchDropped;
    Counter cL1Miss, cMissCoherence, cMissOther, cPartiallyHidden;
    Counter cL1Fills, cL1Drops, cL2Invalidations;
    Counter cBlockOps;
    Counter cBusTxns, cBusBytes, cBusBusyCycles, cBusWaitCycles;
    Counter cLinkTxns, cLinkBytes, cLinkBusyCycles, cLinkWaitCycles;
    Histogram hReadStall, hBusWait, hBlockOpCycles, hWbDepth;
    Histogram hLinkWait;
    Gauge gLastCycle;
    /** @} */
};

} // namespace oscache

#endif // OSCACHE_OBS_HUB_HH

#include "core/runner.hh"

#include <memory>

#include "check/invariants.hh"
#include "common/log.hh"
#include "core/blockop/schemes.hh"
#include "mem/memsys.hh"
#include "sim/system.hh"

namespace oscache
{

namespace
{

/** One plain simulation pass (no hot-spot rewriting). */
RunResult
runOnce(TraceSource &source, const MachineConfig &machine,
        const SimOptions &options, BlockScheme scheme)
{
    RunResult result;
    MemorySystem mem(machine);
    std::unique_ptr<CoherenceChecker> checker;
    if (options.checkCoherence)
        checker = std::make_unique<CoherenceChecker>(machine);

    // Observability: the run-level opt-ins merged with the
    // process-wide default (oscache-bench --metrics).
    const ObsOptions obs_opts = effectiveObsOptions(options.obs);
    std::unique_ptr<ObsHub> hub;
    if (obs_opts.any()) {
        hub = std::make_unique<ObsHub>(obs_opts);
        hub->setMemorySystem(&mem);
        mem.bus().setProbe(hub.get());
        if (mem.numaActive()) {
            for (unsigned s = 0; s < machine.numSockets; ++s)
                mem.socketBus(s).setProbe(hub.get());
            mem.linkBus().setProbe(hub->linkProbe());
        }
    }

    // Checker and hub tap the flat observer fan-out directly — no
    // intermediate observer hop on the per-event path.
    mem.setObservers({checker.get(), hub.get()});

    auto executor = makeBlockOpExecutor(scheme, mem, result.stats, options);
    System system(source, mem, *executor, options, result.stats);
    system.run();
    result.traceMode = source.mode();

    if (hub)
        result.obs = hub->finish();

    if (checker) {
        checker->auditFull(mem);
        if (!checker->clean())
            panic("coherence invariant violated: ",
                  format(checker->findings().front()));
    }

    const auto fold = [&result](const Bus &bus) {
        result.bus.totalBytes += bus.totalBytes();
        result.bus.totalTransactions += bus.totalTransactions();
        result.bus.busyCycles += bus.totalBusyCycles();
        result.bus.fillBytes += bus.bytes(BusTxn::LineFill);
        result.bus.writebackBytes += bus.bytes(BusTxn::WriteBack);
        result.bus.invalidateTransactions +=
            bus.transactions(BusTxn::Invalidate);
        result.bus.updateTransactions += bus.transactions(BusTxn::Update);
        result.bus.updateBytes += bus.bytes(BusTxn::Update);
        result.bus.dmaBytes += bus.bytes(BusTxn::Dma);
    };
    if (!mem.numaActive()) {
        fold(mem.bus());
        return result;
    }
    // Per-kind totals aggregate across the socket buses; the link and
    // the directory-filter counters are reported on their own.
    for (unsigned s = 0; s < machine.numSockets; ++s)
        fold(mem.socketBus(s));
    const Bus &link = mem.linkBus();
    result.bus.numSockets = machine.numSockets;
    result.bus.linkTransactions = link.totalTransactions();
    result.bus.linkBytes = link.totalBytes();
    result.bus.linkBusyCycles = link.totalBusyCycles();
    const MemorySystem::NumaCounters nc = mem.numaCounters();
    result.bus.snoopsFiltered = nc.snoopsFiltered;
    result.bus.snoopsForwarded = nc.snoopsForwarded;
    result.bus.localHomeReads = nc.localHomeReads;
    result.bus.remoteHomeReads = nc.remoteHomeReads;
    return result;
}

} // namespace

RunResult
runOnTrace(const Trace &trace, const MachineConfig &machine,
           const SimOptions &options, const SystemSetup &setup)
{
    return runOnSource(
        [&trace] { return std::make_unique<MaterializedTraceSource>(trace); },
        machine, options, setup);
}

RunResult
runOnSource(const TraceSourceFactory &open, const MachineConfig &machine,
            const SimOptions &options, const SystemSetup &setup)
{
    if (!setup.hotspotPrefetch) {
        auto source = open();
        return runOnce(*source, machine, options, setup.blockScheme);
    }

    // Two-phase hot-spot methodology: the profile pass consumes one
    // source; the prefetch pass re-opens it and inserts the
    // prefetches on the fly.
    RunResult profile;
    {
        auto source = open();
        profile = runOnce(*source, machine, options, setup.blockScheme);
    }
    HotspotPlan plan = selectHotspots(profile.stats, paperHotspotCount);
    const double coverage = oscache::hotspotCoverage(profile.stats, plan);
    PrefetchStreamSource prefetching(open(), plan);
    RunResult result = runOnce(prefetching, machine, options,
                               setup.blockScheme);
    result.hotspots = std::move(plan);
    result.hotspotCoverage = coverage;
    return result;
}

} // namespace oscache

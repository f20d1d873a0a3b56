#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "check/invariants.hh"
#include "core/blockop/schemes.hh"
#include "exp/artifact_cache.hh"
#include "exp/results.hh"
#include "mem/memsys.hh"
#include "obs/timeline.hh"
#include "report/figures.hh"
#include "report/paper.hh"
#include "sim/system.hh"

namespace oscache
{
namespace perfbench
{

namespace
{

/** Outcome of one bare or checked System::run. */
struct ReplayTiming
{
    double runS = 0.0;
    double auditS = 0.0;
    std::uint64_t transitions = 0;
    std::uint64_t accesses = 0;
    std::string finding;
    std::string statsDigest;
};

/** One System::run over a fresh source, optionally checked. */
ReplayTiming
timedReplay(const TraceSourceFactory &open, const MachineConfig &machine,
            const SimOptions &options, BlockScheme scheme, bool checked)
{
    ReplayTiming out;
    CellOutcome outcome;
    auto source = open();
    MemorySystem mem(machine);
    std::unique_ptr<CoherenceChecker> checker;
    if (checked) {
        checker = std::make_unique<CoherenceChecker>(machine);
        mem.setObservers({checker.get()});
    }
    auto executor =
        makeBlockOpExecutor(scheme, mem, outcome.run.stats, options);
    System system(*source, mem, *executor, options, outcome.run.stats);
    const CpuTimer run;
    system.run();
    out.runS = run.seconds();
    if (checker) {
        const CpuTimer audit;
        checker->auditFull(mem);
        out.auditS = audit.seconds();
        out.transitions = checker->transitions();
        if (!checker->clean())
            out.finding = format(checker->findings().front());
    }
    out.accesses = simulatedAccesses(outcome.run.stats);
    out.statsDigest = canonicalDigest("replay", "replay", outcome);
    return out;
}

/** The cells of @p report's experiments that the driver computed. */
template <typename Fn>
void
forEachComputedCell(const DriverReport &report, Fn &&fn)
{
    std::set<std::string> seen;
    for (const ExperimentReport &er : report.experiments) {
        for (const CellSpec &cell : er.experiment->cells) {
            const auto it = er.outcomes.find(cell.id);
            if (it == er.outcomes.end())
                continue;
            if (!cell.sharedKey.empty() &&
                !seen.insert(cell.sharedKey).second)
                continue;
            fn(cell, it->second);
        }
    }
}

const ExperimentReport *
findReport(const DriverReport &report, const std::string &name)
{
    for (const ExperimentReport &er : report.experiments)
        if (er.experiment->name == name)
            return &er;
    return nullptr;
}

std::string
cellName(SystemKind system, WorkloadKind workload)
{
    return std::string(toString(system)) + "/" + toString(workload);
}

/**
 * Mean |measured / Base - paper| over @p rows, where @p metric maps a
 * cell's statistics to the quantity the figure normalizes.
 */
using PaperRows = std::vector<std::pair<SystemKind, const paper::Row *>>;

template <typename Metric>
double
meanAbsoluteError(const ExperimentReport &er, const PaperRows &rows,
                  Metric metric)
{
    double sum = 0.0;
    unsigned n = 0;
    for (const auto &[system, row] : rows) {
        unsigned col = 0;
        for (WorkloadKind kind : allWorkloads) {
            const auto base =
                er.outcomes.find(cellName(SystemKind::Base, kind));
            const auto cell = er.outcomes.find(cellName(system, kind));
            if (base == er.outcomes.end() || cell == er.outcomes.end())
                return 0.0;
            const double norm = metric(cell->second.run.stats) /
                metric(base->second.run.stats);
            sum += std::fabs(norm - (*row)[col]);
            ++n;
            ++col;
        }
    }
    return n == 0 ? 0.0 : sum / double(n);
}

} // namespace

void
Layers::addMem(const RunResult &result, unsigned num_cpus)
{
    const SimStats &s = result.stats;
    const BusSnapshot &bus = result.bus;
    osMissTotal += double(s.osMissTotal());
    busBusyCycles += double(bus.busyCycles);
    // Simulated elapsed time is the per-cpu mean of accounted time;
    // a NUMA machine has one snooping bus per socket.
    const double elapsed = double(s.totalTime()) / double(num_cpus);
    busCapacityCycles +=
        elapsed * double(std::max<std::uint64_t>(1, bus.numSockets));
    linkTransactions += double(bus.linkTransactions);
    snoopsFiltered += double(bus.snoopsFiltered);
    snoopsForwarded += double(bus.snoopsForwarded);
}

Json
Layers::toJson(double unattributed_s, double tracing_overhead) const
{
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double check_self = checkedS - replayS;
    Json j = Json::object();
    j.set("synth.generate_s", number(synthS));
    j.set("synth.records_per_s", number(ratio(synthRecords, synthS)));
    j.set("trace.open_s", number(openS));
    j.set("trace.decode_s", number(decodeS));
    j.set("trace.decode_mrecords_per_s",
          number(ratio(decodeRecords, decodeS) / 1e6));
    j.set("trace.write_s", number(writeS));
    j.set("exp.store_load_s", number(storeLoadS));
    j.set("exp.store_save_s", number(storeSaveS));
    j.set("exp.store_bytes", number(storeBytes));
    j.set("exp.cells_run", number(cellsRun));
    j.set("exp.cells_shared", number(cellsShared));
    j.set("exp.worker_busy_frac", number(workerBusyFrac));
    j.set("exp.longest_cell_s", number(longestCellS));
    j.set("exp.sink_s", number(sinkS));
    j.set("report.trace_cache_generated", number(double(traceCache.generated)));
    j.set("report.trace_cache_persistent_hits",
          number(double(traceCache.persistentHits)));
    j.set("report.trace_cache_memory_hits",
          number(double(traceCache.memoryHits)));
    j.set("report.render_s", number(renderS));
    j.set("paper_fig3_mae", number(figure3Mae));
    j.set("paper_fig2_mae", number(figure2Mae));
    j.set("core.hotspot_s", number(hotspotS));
    j.set("core.hotspot_coverage",
          number(ratio(hotspotCoverageSum, hotspotCells)));
    j.set("sim.replay_s", number(replayS));
    j.set("sim.bare_maccesses_per_s",
          number(ratio(bareAccesses, replayS) / 1e6));
    j.set("mem.os_miss_total", number(osMissTotal));
    j.set("mem.bus_busy_frac", number(ratio(busBusyCycles, busCapacityCycles)));
    j.set("mem.link_transactions", number(linkTransactions));
    j.set("mem.snoop_filter_frac",
          number(ratio(snoopsFiltered, snoopsFiltered + snoopsForwarded)));
    j.set("check.self_s", number(check_self));
    j.set("check.share", number(ratio(check_self, checkedS)));
    j.set("check.transitions", number(transitions));
    j.set("check.audit_s", number(auditS));
    j.set("unattributed_s", number(unattributed_s));
    j.set("tracing_overhead_frac", number(tracing_overhead));
    return j;
}

std::vector<UnitSpec>
standardUnits(const std::vector<const Experiment *> &experiments)
{
    std::vector<UnitSpec> units;
    std::set<std::string> seen;
    for (const Experiment *e : experiments) {
        for (const CellSpec &cell : e->cells) {
            if (cell.body || !seen.insert(cell.sharedKey).second)
                continue;
            units.push_back(
                {cell.workload, cell.system, cell.machine,
                 TraceStore::keyFor(
                     WorkloadProfile::forKind(cell.workload),
                     SystemSetup::forKind(cell.system).coherence,
                     cell.machine.numCpus)});
        }
    }
    return units;
}

std::vector<TraceKey>
traceKeys(const std::vector<UnitSpec> &units)
{
    std::vector<TraceKey> keys;
    std::set<std::string> seen;
    for (const UnitSpec &unit : units) {
        TraceKey key;
        key.workload = unit.workload;
        key.coherence = SystemSetup::forKind(unit.system).coherence;
        key.numCpus = unit.machine.numCpus;
        key.storeKey = unit.storeKey;
        if (seen.insert(key.storeKey).second)
            keys.push_back(key);
    }
    return keys;
}

std::string
accountReplay(const TraceSourceFactory &open, const MachineConfig &machine,
              const SimOptions &options, BlockScheme scheme, Layers &layers)
{
    const ReplayTiming bare =
        timedReplay(open, machine, options, scheme, false);
    const ReplayTiming checked =
        timedReplay(open, machine, options, scheme, true);
    std::string failure = checked.finding;
    if (failure.empty() && bare.statsDigest != checked.statsDigest)
        failure = "bare and checked replay statistics differ";

    std::lock_guard<std::mutex> lock(layers.mutex);
    layers.replayS += bare.runS;
    layers.bareAccesses += double(bare.accesses);
    layers.checkedS += checked.runS;
    layers.auditS += checked.auditS;
    layers.transitions += double(checked.transitions);
    return failure;
}

void
accountHotspot(const Trace &trace, const MachineConfig &machine,
               const SimOptions &options, const SystemSetup &setup,
               Layers &layers)
{
    SystemSetup plain = setup;
    plain.hotspotPrefetch = false;
    const CpuTimer with_pass;
    const RunResult hot = runOnTrace(trace, machine, options, setup);
    const double with_s = with_pass.seconds();
    const CpuTimer without_pass;
    (void)runOnTrace(trace, machine, options, plain);
    const double without_s = without_pass.seconds();

    std::lock_guard<std::mutex> lock(layers.mutex);
    layers.hotspotS += with_s - without_s;
    layers.hotspotCoverageSum += hot.hotspotCoverage;
    layers.hotspotCells += 1.0;
}

void
accountRender(const DriverReport &report, Layers &layers)
{
    for (const ExperimentReport &er : report.experiments) {
        if (!er.experiment->render)
            continue;
        std::ostringstream os;
        const CpuTimer render;
        er.experiment->render(CellLookup(er.outcomes), os);
        layers.renderS += render.seconds();
    }
}

void
accountSink(const DriverReport &report, const std::string &base,
            Layers &layers)
{
    const Stopwatch sink_time;
    ResultsSink sink(base);
    for (const ExperimentReport &er : report.experiments) {
        for (const CellSpec &cell : er.experiment->cells) {
            const auto it = er.outcomes.find(cell.id);
            if (it == er.outcomes.end())
                continue;
            ResultRow row;
            row.experiment = er.experiment->name;
            row.cell = cell.id;
            row.workload = toString(cell.workload);
            row.system = toString(cell.system);
            row.traceMode = it->second.run.traceMode;
            row.outcome = &it->second;
            sink.record(row);
        }
    }
    layers.sinkS += sink_time.seconds();
}

void
accountDriver(const DriverReport &report, const Timeline &timeline,
              double wall_s, unsigned jobs, Layers &layers)
{
    layers.cellsRun = report.cellsRun;
    layers.cellsShared = report.cellsShared;
    layers.traceCache = report.traceStats;
    for (const TimelineEvent &event : timeline.sorted())
        if (event.phase == TimelinePhase::Complete)
            layers.longestCellS =
                std::max(layers.longestCellS, double(event.dur) * 1e-6);
    const double cell_s = report.totalCellMs / 1e3;
    layers.workerBusyFrac =
        wall_s > 0.0 ? cell_s / (double(jobs) * wall_s) : 0.0;
}

void
accountOutcomes(const DriverReport &report, Layers &layers)
{
    forEachComputedCell(report,
                        [&layers](const CellSpec &cell,
                                  const CellOutcome &outcome) {
                            layers.addMem(outcome.run,
                                          cell.machine.numCpus);
                        });
}

std::uint64_t
computedAccesses(const DriverReport &report)
{
    std::uint64_t total = 0;
    forEachComputedCell(report,
                        [&total](const CellSpec &, const CellOutcome &o) {
                            total += simulatedAccesses(o.run.stats);
                        });
    return total;
}

PaperError
paperError(const DriverReport &report)
{
    PaperError error;
    if (const ExperimentReport *fig3 = findReport(report, "figure3")) {
        error.figure3 = meanAbsoluteError(
            *fig3,
            {{SystemKind::BlkPref, &paper::fig3BlkPref},
             {SystemKind::BlkBypass, &paper::fig3BlkBypass},
             {SystemKind::BlkByPref, &paper::fig3BlkByPref},
             {SystemKind::BlkDma, &paper::fig3BlkDma},
             {SystemKind::BCohReloc, &paper::fig3BCohReloc},
             {SystemKind::BCohRelUp, &paper::fig3BCohRelUp},
             {SystemKind::BCPref, &paper::fig3BCPref}},
            [](const SimStats &s) { return double(s.osTime()); });
    }
    if (const ExperimentReport *fig2 = findReport(report, "figure2")) {
        error.figure2 = meanAbsoluteError(
            *fig2,
            {{SystemKind::BlkPref, &paper::fig2BlkPref},
             {SystemKind::BlkBypass, &paper::fig2BlkBypass},
             {SystemKind::BlkByPref, &paper::fig2BlkByPref},
             {SystemKind::BlkDma, &paper::fig2BlkDma}},
            [](const SimStats &s) { return remainingOsMisses(s); });
    }
    return error;
}

} // namespace perfbench
} // namespace oscache

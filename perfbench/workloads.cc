/**
 * @file
 * The three benchmark workloads.
 *
 *  - paper_warm: the figures and tables cells through runExperiments
 *    on a warm artifact store with an empty in-memory trace cache.
 *  - numa_cold: the 2x4 numa_server cells on an empty store, so
 *    synthesis and store writes are part of the timed work.
 *  - long_stream: one long Shell trace, written once as chunked v3,
 *    replayed single-threaded through FileTraceSource under Base and
 *    Blk_Dma.
 */

#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <stdexcept>

#include "bench.hh"
#include "exp/artifact_cache.hh"
#include "exp/pool.hh"
#include "layers.hh"
#include "report/experiment.hh"
#include "synth/generator.hh"
#include "trace/io.hh"

namespace oscache
{
namespace perfbench
{

namespace
{

namespace fs = std::filesystem;

/** Traces held by the accounting pass, by TraceStore key. */
using TraceMap = std::map<std::string, std::shared_ptr<const Trace>>;

/**
 * Engine warm-up shared by every set-up: one short checked replay,
 * so code paging and allocator growth are paid before timing.  It
 * bypasses the trace caches, which the timed part must find empty.
 */
void
warmEngine()
{
    WorkloadProfile profile = WorkloadProfile::forKind(WorkloadKind::Trfd4);
    profile.quanta = 24;
    const Trace trace =
        generateTrace(profile, CoherenceOptions::none(), 4);
    (void)runOnTrace(trace, MachineConfig::base(), profile.simOptions(),
                     SystemSetup::forKind(SystemKind::Base));
}

void
freshDirectory(const std::string &path)
{
    fs::remove_all(path);
    fs::create_directories(path);
}

/**
 * Shared body of the two registry workloads: run experiments through
 * runExperiments against a TraceStore, check every row against the
 * pins, and account the standard cells layer by layer.
 */
class RegistryWorkload : public Workload
{
  public:
    RegistryWorkload(const Options &options, Expectations &expected,
                     std::string name,
                     std::vector<const Experiment *> selected)
        : opts(options), pins(expected), workloadName(std::move(name)),
          experiments(std::move(selected)),
          units(standardUnits(experiments)), keys(traceKeys(units)),
          storeDir(options.scratch + "/" + workloadName + "_store")
    {}

    RepSample
    rep(Verdict &verdict) override
    {
        DriverReport report;
        return timedRun(verdict, nullptr, report);
    }

    void
    traced(Verdict &verdict, Json &out) override
    {
        // Untraced repetitions on both sides, so the first repetition's
        // cold start is not charged to tracing.
        const double before_s = rep(verdict).wallS;
        Timeline timeline(1 << 16);
        DriverReport report;
        const RepSample traced_rep = timedRun(verdict, &timeline, report);
        const double untraced_s = (before_s + rep(verdict).wallS) / 2.0;

        Layers layers;
        accountDriver(report, timeline, traced_rep.wallS, opts.jobs, layers);
        accountOutcomes(report, layers);
        layers.figure3Mae = lastError.figure3;
        layers.figure2Mae = lastError.figure2;
        account(layers, verdict);
        accountRender(report, layers);
        accountSink(report, opts.scratch + "/" + workloadName + "_sink",
                    layers);
        fs::remove(opts.scratch + "/" + workloadName + "_sink.jsonl");
        fs::remove(opts.scratch + "/" + workloadName + "_sink.csv");

        // CPU of the traced repetition the layers do not explain:
        // machine construction, custom-cell bodies, the scheduler.
        const double attributed = layers.storeLoadS + layers.synthS +
            layers.storeSaveS + layers.checkedS + layers.auditS +
            layers.hotspotS + layers.renderS;
        out = layers.toJson(traced_rep.cpuS - attributed,
                            traced_rep.wallS / untraced_s - 1.0);
    }

    Json
    extra() const override
    {
        Json j = Json::object();
        j.set("paper_fig3_mae", number(lastError.figure3));
        j.set("paper_fig2_mae", number(lastError.figure2));
        return j;
    }

  protected:
    /** Prepare the store the timed part starts from. */
    virtual void prepareStore() = 0;
    /** Clean up after the timed part. */
    virtual void finishStore() {}
    /**
     * Account trace acquisition (load, or synth + save) for the trace
     * keys, leaving the traces in @p traces.
     */
    virtual void acquireTraces(Layers &layers, TraceMap &traces,
                               Verdict &verdict) = 0;

    const Options &opts;
    Expectations &pins;
    std::string workloadName;
    std::vector<const Experiment *> experiments;
    std::vector<UnitSpec> units;
    std::vector<TraceKey> keys;
    std::string storeDir;

  private:
    /** One timed runExperiments call, checked against the pins. */
    RepSample
    timedRun(Verdict &verdict, Timeline *timeline, DriverReport &report)
    {
        clearTraceCache();
        prepareStore();
        TraceStore store(storeDir);
        DriverOptions driver;
        driver.jobs = opts.jobs;
        driver.store = &store;
        driver.timeline = timeline;

        resetPeakRss();
        RepSample sample;
        const double cpu0 = processCpuSeconds();
        const Stopwatch wall;
        report = runExperiments(experiments, driver);
        sample.wallS = wall.seconds();
        sample.cpuS = processCpuSeconds() - cpu0;
        sample.peakRssMb = peakRssMb();

        clearTraceCache();
        finishStore();
        check(report, verdict);
        lastError = paperError(report);
        sample.accesses = computedAccesses(report);
        return sample;
    }

    /** Every cell of every experiment against its pinned row. */
    void
    check(const DriverReport &report, Verdict &verdict)
    {
        for (const ExperimentReport &er : report.experiments) {
            const std::string &name = er.experiment->name;
            for (const CellSpec &cell : er.experiment->cells) {
                const std::string key =
                    workloadName + " " + name + ":" + cell.id;
                const auto it = er.outcomes.find(cell.id);
                if (it == er.outcomes.end()) {
                    verdict.record(key + ": cell produced no outcome");
                    continue;
                }
                verdict.record(pins.check(
                    key, canonicalDigest(name, cell.id, it->second)));
            }
        }
    }

    /** Replay every standard unit layer by layer on a pool. */
    void
    account(Layers &layers, Verdict &verdict)
    {
        TraceMap traces;
        acquireTraces(layers, traces, verdict);

        JobGraph graph;
        for (const UnitSpec &unit : units) {
            const auto it = traces.find(unit.storeKey);
            if (it == traces.end()) {
                verdict.record(std::string("no trace for ") +
                               toString(unit.workload));
                continue;
            }
            const Trace *trace = it->second.get();
            graph.add(toString(unit.system), [trace, &unit, &layers,
                                              &verdict] {
                const SimOptions options =
                    WorkloadProfile::forKind(unit.workload).simOptions();
                const SystemSetup setup = SystemSetup::forKind(unit.system);
                const std::string failure = accountReplay(
                    [trace] {
                        return std::make_unique<MaterializedTraceSource>(
                            *trace);
                    },
                    unit.machine, options, setup.blockScheme, layers);
                verdict.record(failure);
                if (setup.hotspotPrefetch)
                    accountHotspot(*trace, unit.machine, options, setup,
                                   layers);
            });
        }
        graph.run(opts.jobs);
    }

    PaperError lastError;
};

// ------------------------------------------------------------ paper_warm

class PaperWarm final : public RegistryWorkload
{
  public:
    PaperWarm(const Options &options, Expectations &expected)
        : RegistryWorkload(options, expected, "paper_warm",
                           resolveExperiments({"figures", "tables"}))
    {}

    /** Warm a fresh store with every trace the cells read. */
    void
    setup() override
    {
        clearTraceCache();
        freshDirectory(storeDir);
        TraceStore store(storeDir);
        JobGraph graph;
        for (const TraceKey &key : keys) {
            graph.add(key.storeKey, [&key, &store] {
                const Trace trace = generateTrace(
                    WorkloadProfile::forKind(key.workload), key.coherence,
                    key.numCpus);
                store.store(key.storeKey, trace);
            });
        }
        graph.run(opts.jobs);
        warmEngine();
    }

  protected:
    void prepareStore() override {}

    void
    acquireTraces(Layers &layers, TraceMap &traces,
                  Verdict &verdict) override
    {
        TraceStore store(storeDir);
        std::mutex mutex;
        JobGraph graph;
        for (const TraceKey &key : keys) {
            graph.add(key.storeKey, [&key, &store, &layers, &traces, &mutex,
                                     &verdict] {
                const CpuTimer load;
                std::optional<Trace> trace = store.load(key.storeKey);
                const double load_s = load.seconds();
                if (!trace) {
                    verdict.record("store lost trace " + key.storeKey);
                    return;
                }
                auto shared =
                    std::make_shared<const Trace>(std::move(*trace));
                {
                    std::lock_guard<std::mutex> lock(layers.mutex);
                    layers.storeLoadS += load_s;
                }
                std::lock_guard<std::mutex> lock(mutex);
                traces[key.storeKey] = std::move(shared);
            });
        }
        graph.run(opts.jobs);
    }
};

// ------------------------------------------------------------- numa_cold

/**
 * The 2x4 cells of numa_server, without its all-geometry render.
 * Lives as long as the registry it is copied from.
 */
const Experiment *
numaTwoByFour()
{
    static const Experiment subset = [] {
        const Experiment *all = findExperiment("numa_server");
        if (all == nullptr)
            throw std::runtime_error("registry has no numa_server");
        Experiment e;
        e.name = all->name;
        e.title = all->title;
        e.smokeCell = all->smokeCell;
        for (const CellSpec &cell : all->cells)
            if (cell.id.rfind("2x4/", 0) == 0)
                e.cells.push_back(cell);
        return e;
    }();
    return &subset;
}

class NumaCold final : public RegistryWorkload
{
  public:
    NumaCold(const Options &options, Expectations &expected)
        : RegistryWorkload(options, expected, "numa_cold", {numaTwoByFour()})
    {}

    /** An empty store and a warm engine. */
    void
    setup() override
    {
        clearTraceCache();
        freshDirectory(storeDir);
        warmEngine();
    }

  protected:
    void prepareStore() override { freshDirectory(storeDir); }
    void finishStore() override { fs::remove_all(storeDir); }

    /** Cold store: a load miss, then synthesis and a save per trace. */
    void
    acquireTraces(Layers &layers, TraceMap &traces,
                  Verdict &verdict) override
    {
        const std::string dir = opts.scratch + "/numa_cold_account";
        freshDirectory(dir);
        TraceStore store(dir);
        std::mutex mutex;
        JobGraph graph;
        for (const TraceKey &key : keys) {
            graph.add(key.storeKey, [&key, &store, &layers, &traces, &mutex,
                                     &verdict] {
                const CpuTimer load;
                const bool hit = store.load(key.storeKey).has_value();
                const double load_s = load.seconds();
                const CpuTimer synth;
                auto trace = std::make_shared<const Trace>(generateTrace(
                    WorkloadProfile::forKind(key.workload), key.coherence,
                    key.numCpus));
                const double synth_s = synth.seconds();
                const CpuTimer save;
                store.store(key.storeKey, *trace);
                const double save_s = save.seconds();
                std::error_code ec;
                const auto bytes =
                    fs::file_size(store.pathFor(key.storeKey), ec);
                if (hit || ec)
                    verdict.record("cold store misbehaved for " +
                                   key.storeKey);
                {
                    std::lock_guard<std::mutex> lock(layers.mutex);
                    layers.storeLoadS += load_s;
                    layers.synthS += synth_s;
                    layers.synthRecords += double(trace->totalRecords());
                    layers.storeSaveS += save_s;
                    layers.storeBytes += ec ? 0.0 : double(bytes);
                }
                std::lock_guard<std::mutex> lock(mutex);
                traces[key.storeKey] = std::move(trace);
            });
        }
        graph.run(opts.jobs);
        fs::remove_all(dir);
    }
};

// ----------------------------------------------------------- long_stream

/** Calibrated-quanta multiple of the long Shell trace. */
constexpr unsigned longStreamScale = 5;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

class LongStream final : public Workload
{
  public:
    LongStream(const Options &options, Expectations &expected)
        : opts(options), pins(expected),
          path(options.scratch + "/long_stream.otc")
    {
        profile = WorkloadProfile::forKind(WorkloadKind::Shell);
        profile.quanta *= longStreamScale;
        if (options.seed != defaultSeed)
            profile.seed ^= splitmix64(options.seed);
    }

    /** Synthesize the trace straight to a chunked v3 file. */
    void
    setup() override
    {
        synthS = writeS = 0.0;
        records = 0;
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            TraceGenerator gen(profile, CoherenceOptions::none(), numCpus);
            ChunkedTraceWriter writer(os, numCpus, gen.updatePages());
            std::vector<RecordStream> quantum(numCpus);
            std::vector<RecordStream *> sinks;
            for (RecordStream &stream : quantum)
                sinks.push_back(&stream);
            while (!gen.done()) {
                const CpuTimer synth;
                gen.nextQuantum(sinks);
                synthS += synth.seconds();
                const CpuTimer write;
                for (unsigned cpu = 0; cpu < numCpus; ++cpu) {
                    records += quantum[cpu].size();
                    writer.writeChunk(CpuId(cpu), quantum[cpu]);
                    quantum[cpu].clear();
                }
                writeS += write.seconds();
            }
            const CpuTimer write;
            writer.finish(gen.blockOps());
            os.flush();
            if (!os)
                throw std::runtime_error("cannot write " + path);
            writeS += write.seconds();
        }
        warmEngine();
    }

    RepSample
    rep(Verdict &verdict) override
    {
        return timedRun(verdict);
    }

    void
    traced(Verdict &verdict, Json &out) override
    {
        const double before_s = rep(verdict).wallS;
        const RepSample traced_rep = timedRun(verdict);
        const double untraced_s = (before_s + rep(verdict).wallS) / 2.0;

        Layers layers;
        layers.synthS = synthS;
        layers.synthRecords = double(records);
        layers.writeS = writeS;
        for (const RunResult &result : lastResults)
            layers.addMem(result, numCpus);

        for (const SystemKind system : systems) {
            const CpuTimer open;
            auto source = openSource();
            layers.openS += open.seconds();
            const CpuTimer decode;
            for (unsigned cpu = 0; cpu < numCpus; ++cpu) {
                auto cursor = source->cursor(CpuId(cpu));
                const TraceRecord *first = nullptr;
                while (const std::size_t n = cursor->peekRun(first)) {
                    layers.decodeRecords += double(n);
                    cursor->advanceRun(n);
                }
            }
            layers.decodeS += decode.seconds();
            verdict.record(accountReplay(
                [this] { return openSource(); }, MachineConfig::base(),
                profile.simOptions(),
                SystemSetup::forKind(system).blockScheme, layers));
        }

        // CPU of the traced passes the layers do not explain; decode
        // is a child of the bare run, so it is not subtracted again.
        const double attributed =
            layers.openS + layers.checkedS + layers.auditS;
        out = layers.toJson(traced_rep.cpuS - attributed,
                            traced_rep.wallS / untraced_s - 1.0);
    }

    Json
    extra() const override
    {
        Json j = Json::object();
        j.set("profile_seed", std::to_string(profile.seed));
        j.set("records", number(double(records)));
        Json digests = Json::object();
        for (const auto &[system, digest] : lastDigests)
            digests.set(system, digest);
        j.set("digests", digests);
        return j;
    }

  private:
    static constexpr unsigned numCpus = 4;
    static constexpr SystemKind systems[] = {SystemKind::Base,
                                             SystemKind::BlkDma};

    std::unique_ptr<TraceSource>
    openSource() const
    {
        return std::make_unique<FileTraceSource>(
            path, defaultStreamReadAhead, FileTraceSource::ScanDepth::Full);
    }

    /** Both replay passes, each one checked operation. */
    RepSample
    timedRun(Verdict &verdict)
    {
        lastResults.clear();
        resetPeakRss();
        RepSample sample;
        const double cpu0 = processCpuSeconds();
        const Stopwatch wall;
        for (const SystemKind system : systems) {
            lastResults.push_back(runOnSource(
                [this] { return openSource(); }, MachineConfig::base(),
                profile.simOptions(), SystemSetup::forKind(system)));
        }
        sample.wallS = wall.seconds();
        sample.cpuS = processCpuSeconds() - cpu0;
        sample.peakRssMb = peakRssMb();

        for (std::size_t i = 0; i < lastResults.size(); ++i) {
            const std::string system = toString(systems[i]);
            CellOutcome outcome;
            outcome.run = lastResults[i];
            const std::string digest =
                canonicalDigest("long_stream", system, outcome);
            lastDigests[system] = digest;
            sample.accesses += simulatedAccesses(outcome.run.stats);
            // Non-default seeds have no pins: the always-on checker
            // (a finding aborts the run) is their correctness gate.
            verdict.record(opts.seed == defaultSeed
                               ? pins.check("long_stream default:" + system,
                                            digest)
                               : std::string());
        }
        return sample;
    }

    const Options &opts;
    Expectations &pins;
    std::string path;
    WorkloadProfile profile;
    double synthS = 0.0;
    double writeS = 0.0;
    std::uint64_t records = 0;
    std::vector<RunResult> lastResults;
    std::map<std::string, std::string> lastDigests;
};

} // namespace

std::unique_ptr<Workload>
makePaperWarm(const Options &options, Expectations &expected)
{
    return std::make_unique<PaperWarm>(options, expected);
}

std::unique_ptr<Workload>
makeNumaCold(const Options &options, Expectations &expected)
{
    return std::make_unique<NumaCold>(options, expected);
}

std::unique_ptr<Workload>
makeLongStream(const Options &options, Expectations &expected)
{
    return std::make_unique<LongStream>(options, expected);
}

} // namespace perfbench
} // namespace oscache

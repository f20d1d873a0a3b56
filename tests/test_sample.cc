/**
 * @file
 * Sampling-subsystem tests: plan arithmetic and parsing, the
 * SamplingCursor's warm/measure/skip alternation, the Student-t CI
 * math against precomputed references (plus the more-windows-never-
 * wider property), SimStats serialization round-trips, and the
 * checkpoint store's error paths — truncated file, bad magic, bad
 * checksum, version mismatch, and geometry mismatch must all be
 * rejected with a diagnostic, never silently resumed.
 */

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/binio.hh"
#include "core/runner.hh"
#include "core/system_config.hh"
#include "sample/checkpoint.hh"
#include "sample/cursor.hh"
#include "sample/plan.hh"
#include "sample/run.hh"
#include "sample/stats.hh"
#include "synth/generator.hh"
#include "synth/stream_source.hh"
#include "trace/source.hh"

namespace oscache
{
namespace sample
{
namespace
{

namespace fs = std::filesystem;

// Per-process scratch: ctest runs every TEST as its own process, and
// concurrent fixtures sharing one file would read each other's
// half-written checkpoints.
std::string
scratchPath(const std::string &name)
{
    const auto dir = fs::temp_directory_path() /
                     ("oscache_sample_tests_" + std::to_string(getpid()));
    fs::create_directories(dir);
    return (dir / name).string();
}

WorkloadProfile
smallProfile(WorkloadKind kind = WorkloadKind::Trfd4, unsigned quanta = 4)
{
    WorkloadProfile p = WorkloadProfile::forKind(kind);
    p.quanta = quanta;
    return p;
}

// ---------------------------------------------------------------------
// Plan arithmetic and parsing.

TEST(SamplePlan, ClassifiesEveryPhaseBoundary)
{
    SamplingPlan plan;
    plan.period = 100;
    plan.warmup = 30;
    plan.measure = 20;
    ASSERT_TRUE(plan.valid());

    EXPECT_EQ(plan.classify(0).phase, SamplePhase::Warm);
    EXPECT_EQ(plan.classify(0).remaining, 30u);
    EXPECT_EQ(plan.classify(29).phase, SamplePhase::Warm);
    EXPECT_EQ(plan.classify(29).remaining, 1u);
    EXPECT_EQ(plan.classify(30).phase, SamplePhase::Measure);
    EXPECT_EQ(plan.classify(49).phase, SamplePhase::Measure);
    EXPECT_EQ(plan.classify(49).remaining, 1u);
    EXPECT_EQ(plan.classify(50).phase, SamplePhase::Skip);
    EXPECT_EQ(plan.classify(50).remaining, 50u);
    EXPECT_EQ(plan.classify(99).remaining, 1u);
    // Next window starts over.
    EXPECT_EQ(plan.classify(100).phase, SamplePhase::Warm);
    EXPECT_EQ(plan.classify(100).window, 1u);
    EXPECT_EQ(plan.classify(250).window, 2u);
}

TEST(SamplePlan, ParseAcceptsSuffixesAndSubsets)
{
    const SamplingPlan plan = SamplingPlan::parse(
        "period=100k,measure=2k,warmup=8k,error=0.05,rounds=4");
    EXPECT_EQ(plan.period, 100'000u);
    EXPECT_EQ(plan.measure, 2'000u);
    EXPECT_EQ(plan.warmup, 8'000u);
    EXPECT_DOUBLE_EQ(plan.targetError, 0.05);
    EXPECT_EQ(plan.maxRounds, 4u);

    // Subset keeps defaults for the rest.
    const SamplingPlan partial = SamplingPlan::parse("period=1m");
    EXPECT_EQ(partial.period, 1'000'000u);
    EXPECT_EQ(partial.measure, SamplingPlan{}.measure);

    EXPECT_EQ(parseCount("250"), 250u);
    EXPECT_EQ(parseCount("2g"), 2'000'000'000u);
}

TEST(SamplePlan, TryParseMirrorsParse)
{
    const auto good = sample::SamplingPlan::tryParse(
        "period=100k,measure=2k,warmup=8k");
    ASSERT_TRUE(good.has_value());
    EXPECT_EQ(good->period, 100'000u);
    EXPECT_EQ(good->measure, 2'000u);

    std::string error;
    EXPECT_FALSE(sample::SamplingPlan::tryParse("period=", &error)
                     .has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(
        sample::SamplingPlan::tryParse("bogus=1", &error).has_value());
    EXPECT_FALSE(sample::SamplingPlan::tryParse(
                     "period=1k,measure=2k,warmup=8k", &error)
                     .has_value())
        << "invalid geometry (warmup+measure > period) must be caught";
}

TEST(SamplePlan, EscalationHalvesButNeverUnderflows)
{
    SamplingPlan plan;
    plan.period = 20'000;
    plan.warmup = 6'000;
    plan.measure = 2'000;
    const SamplingPlan once = plan.escalated();
    EXPECT_EQ(once.period, 10'000u);
    // Halving below warmup+measure clamps: the plan stays valid.
    const SamplingPlan floor = once.escalated();
    EXPECT_EQ(floor.period, 8'000u);
    EXPECT_TRUE(floor.valid());
    EXPECT_EQ(floor.escalated().period, 8'000u);
}

// ---------------------------------------------------------------------
// SamplingCursor: the engine must see exactly the warm + measured
// records, in order, and the skip stretches must be accounted.

TEST(SampleCursor, ExposesExactlyWarmAndMeasuredRecords)
{
    const Trace trace =
        generateTrace(smallProfile(), CoherenceOptions::none());
    SamplingPlan plan;
    plan.period = 1'000;
    plan.warmup = 150;
    plan.measure = 50;
    MaterializedTraceSource inner(trace);
    SampledTraceSource source(inner, plan);
    EXPECT_STREQ(source.mode(), "sampled");

    for (CpuId cpu = 0; cpu < source.numCpus(); ++cpu) {
        const std::vector<TraceRecord> &all = trace.stream(cpu);
        auto cursor = source.cursor(cpu);
        SamplingCursor *sampling = source.cursorFor(cpu);

        std::vector<TraceRecord> seen;
        std::uint64_t measured_seen = 0;
        while (const TraceRecord *rec = cursor->peek()) {
            if (sampling->phase() == SamplePhase::Measure)
                ++measured_seen;
            seen.push_back(*rec);
            cursor->advance();
        }

        std::vector<TraceRecord> expected;
        std::uint64_t expected_measured = 0;
        for (std::size_t i = 0; i < all.size(); ++i) {
            const auto at = plan.classify(i);
            if (at.phase == SamplePhase::Skip)
                continue;
            expected.push_back(all[i]);
            if (at.phase == SamplePhase::Measure)
                ++expected_measured;
        }
        EXPECT_EQ(seen, expected) << "cpu " << int(cpu);
        EXPECT_EQ(measured_seen, expected_measured);
        EXPECT_EQ(sampling->measuredRecords(), expected_measured);
        // Exhaustion accounts for every record: consumed + skipped.
        EXPECT_EQ(sampling->position(), all.size());
        EXPECT_EQ(sampling->position() - sampling->skippedRecords(),
                  seen.size());
    }
}

TEST(SampleCursor, RawSkipIsNotPlanSkip)
{
    const Trace trace =
        generateTrace(smallProfile(), CoherenceOptions::none());
    SamplingPlan plan;
    plan.period = 500;
    plan.warmup = 100;
    plan.measure = 50;
    MaterializedTraceSource inner(trace);
    SampledTraceSource source(inner, plan);
    auto cursor = source.cursor(0);
    SamplingCursor *sampling = source.cursorFor(0);

    // Checkpoint-resume style fast-forward: straight to record 1120,
    // none of it counted as plan-skipped.
    EXPECT_EQ(cursor->skip(1120), 1120u);
    EXPECT_EQ(sampling->position(), 1120u);
    EXPECT_EQ(sampling->skippedRecords(), 0u);
    // 1120 is 120 into window 2 — inside the measure phase
    // (warmup 100 .. warmup+measure 150), so peek() must not settle
    // away from it.
    EXPECT_EQ(sampling->window(), 2u);
    EXPECT_EQ(sampling->phase(), SamplePhase::Measure);
    ASSERT_NE(cursor->peek(), nullptr);
    EXPECT_EQ(*cursor->peek(), trace.stream(0)[1120]);
}

// ---------------------------------------------------------------------
// CI math: Student-t reference values and hand-computed aggregation.

TEST(SampleStats, StudentTMatchesReferenceTable)
{
    EXPECT_DOUBLE_EQ(studentT95(1), 12.706);
    EXPECT_DOUBLE_EQ(studentT95(5), 2.571);
    EXPECT_DOUBLE_EQ(studentT95(10), 2.228);
    EXPECT_DOUBLE_EQ(studentT95(30), 2.042);
    EXPECT_NEAR(studentT95(40), 2.021, 1e-9);
    EXPECT_NEAR(studentT95(60), 2.000, 1e-9);
    EXPECT_NEAR(studentT95(120), 1.980, 1e-9);
    EXPECT_NEAR(studentT95(100000), 1.960, 1e-3);
    // Monotone non-increasing everywhere we interpolate.
    for (std::uint64_t df = 2; df < 300; ++df)
        EXPECT_LE(studentT95(df), studentT95(df - 1)) << df;
}

TEST(SampleStats, FinalizeMatchesHandComputedCI)
{
    SampleReport report;
    report.totalRecords = 1'000;
    const double values[] = {10, 12, 8, 10};
    for (std::size_t i = 0; i < 4; ++i) {
        WindowSample w;
        w.window = i;
        w.records = 100;
        w.values[std::size_t(SampleMetric::OsReads)] = values[i];
        report.windows.push_back(w);
    }
    report.finalize();

    const MetricEstimate &est = report.of(SampleMetric::OsReads);
    EXPECT_EQ(est.n, 4u);
    EXPECT_DOUBLE_EQ(est.mean, 10.0);
    EXPECT_DOUBLE_EQ(est.rate, 0.1);
    // var = (0 + 4 + 4 + 0) / 3; half = t(3) * sqrt(var / 4).
    const double half = 3.182 * std::sqrt((8.0 / 3.0) / 4.0);
    EXPECT_NEAR(est.halfwidth, half, 1e-9);
    EXPECT_NEAR(est.rateHalf, half / 100.0, 1e-12);
    EXPECT_NEAR(est.estimateTotal(1'000), 100.0, 1e-9);
    EXPECT_NEAR(est.totalHalfwidth(1'000), 10.0 * half, 1e-9);
    EXPECT_NEAR(est.relError(), half / 10.0, 1e-9);
}

TEST(SampleStats, MoreWindowsNeverWidenTheCI)
{
    // Seeded i.i.d. window stream: every doubling of the window count
    // must leave the CI no wider, for every tracked metric.
    std::mt19937_64 rng(20260808);
    std::uniform_real_distribution<double> dist(50.0, 150.0);

    std::vector<WindowSample> windows;
    double prev[numSampleMetrics];
    for (std::size_t m = 0; m < numSampleMetrics; ++m)
        prev[m] = 0;
    for (const std::size_t n : {8u, 16u, 32u, 64u, 128u}) {
        while (windows.size() < n) {
            WindowSample w;
            w.window = windows.size();
            w.records = 100;
            for (std::size_t m = 0; m < numSampleMetrics; ++m)
                w.values[m] = dist(rng);
            windows.push_back(w);
        }
        SampleReport report;
        report.windows = windows;
        report.finalize();
        for (std::size_t m = 0; m < numSampleMetrics; ++m) {
            const MetricEstimate &est = report.estimates[m];
            if (prev[m] > 0) {
                EXPECT_LE(est.halfwidth, prev[m])
                    << toString(SampleMetric(m)) << " at n=" << n;
            }
            prev[m] = est.halfwidth;
        }
    }
}

// ---------------------------------------------------------------------
// SimStats serialization round-trip.

SimStats
populatedStats()
{
    SimStats s;
    s.userExec = 11;
    s.userReadStall = 12;
    s.osExec = 13;
    s.osReadStall = 14;
    s.osSpin = 15;
    s.idle = 16;
    s.userReads = 17;
    s.osReads = 18;
    s.osInstrs = 19;
    s.userMisses = 20;
    s.osMissBlock = 21;
    s.osMissBlockBySize[1] = 22;
    s.osMissCoherence[3] = 23;
    s.osMissOther = 24;
    s.osOtherMissByBb[0x1234] = 25;
    s.osOtherMissByBb[0x99] = 26;
    s.userMissByBb[0x7] = 27;
    return s;
}

TEST(SampleCheckpoint, StatsRoundTripBitIdentical)
{
    const SimStats original = populatedStats();
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    {
        binio::BinaryWriter writer(buf);
        putStats(writer, original);
    }
    binio::BinaryReader reader(buf);
    SimStats loaded;
    std::string error;
    ASSERT_TRUE(getStats(reader, loaded, &error)) << error;
    EXPECT_EQ(loaded, original);
}

TEST(SampleCheckpoint, TruncatedStatsRejected)
{
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    {
        binio::BinaryWriter writer(buf);
        putStats(writer, populatedStats());
    }
    const std::string bytes = buf.str();
    std::stringstream cut(bytes.substr(0, bytes.size() / 2),
                          std::ios::in | std::ios::binary);
    binio::BinaryReader reader(cut);
    SimStats loaded;
    std::string error;
    EXPECT_FALSE(getStats(reader, loaded, &error));
    EXPECT_FALSE(error.empty());
}

// ---------------------------------------------------------------------
// Geometry digest and artifact key.

TEST(SampleCheckpoint, DigestSeesEveryGeometryChange)
{
    const MachineConfig base = MachineConfig::base();
    const std::uint64_t digest = configDigest(base);
    MachineConfig changed = base;
    changed.l1Size *= 2;
    EXPECT_NE(configDigest(changed), digest);
    changed = base;
    changed.numCpus += 1;
    EXPECT_NE(configDigest(changed), digest);
    EXPECT_EQ(configDigest(base), digest);
}

TEST(SampleCheckpoint, KeyCoversTracePlanAndGeometry)
{
    const MachineConfig machine = MachineConfig::base();
    SamplingPlan plan;
    const std::string key = checkpointKey("trace-abc", plan, machine);
    EXPECT_EQ(key.rfind("ckpt-", 0), 0u);
    EXPECT_NE(checkpointKey("trace-xyz", plan, machine), key);
    SamplingPlan other = plan;
    other.period *= 2;
    EXPECT_NE(checkpointKey("trace-abc", other, machine), key);
    MachineConfig bigger = machine;
    bigger.l2Size *= 2;
    EXPECT_NE(checkpointKey("trace-abc", plan, bigger), key);
    EXPECT_EQ(checkpointKey("trace-abc", plan, machine), key);
}

// ---------------------------------------------------------------------
// Checkpoint store error paths, against a real live point.

/** A real checkpoint file from a short sampled run. */
class SampleCheckpointFile : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        path = new std::string(scratchPath("live_point.oslp"));
        machine = new MachineConfig(MachineConfig::base());
        const WorkloadProfile profile = smallProfile();
        const CoherenceOptions coherence = CoherenceOptions::none();
        {
            const SynthTraceSource probe(profile, coherence);
            machine->numCpus = probe.numCpus();
        }
        SampleRunOptions opts;
        opts.plan.period = 20'000;
        opts.plan.warmup = 4'000;
        opts.plan.measure = 2'000;
        opts.saveCheckpoint = *path;
        const SampleRunOutcome outcome = runSampled(
            [&]() -> std::unique_ptr<TraceSource> {
                return std::make_unique<SynthTraceSource>(profile,
                                                          coherence);
            },
            *machine, profile.simOptions(), BlockScheme::Base, opts);
        ASSERT_TRUE(outcome.ok) << outcome.error;
    }

    static void
    TearDownTestSuite()
    {
        fs::remove_all(fs::path(*path).parent_path());
        delete path;
        delete machine;
        path = nullptr;
        machine = nullptr;
    }

    static std::vector<char>
    readAll()
    {
        std::ifstream is(*path, std::ios::in | std::ios::binary);
        return std::vector<char>(std::istreambuf_iterator<char>(is),
                                 std::istreambuf_iterator<char>());
    }

    /** readHeader() diagnostic on @p bytes ("" = header accepted). */
    static std::string
    headerError(const std::vector<char> &bytes,
                const MachineConfig &config)
    {
        std::stringstream is(std::string(bytes.begin(), bytes.end()),
                             std::ios::in | std::ios::binary);
        CheckpointReader reader(is);
        std::string error;
        if (!reader.readHeader(config, &error)) {
            EXPECT_FALSE(error.empty());
            return error;
        }
        return "";
    }

    static std::string *path;
    static MachineConfig *machine;
};

std::string *SampleCheckpointFile::path = nullptr;
MachineConfig *SampleCheckpointFile::machine = nullptr;

TEST_F(SampleCheckpointFile, IntactHeaderAccepted)
{
    EXPECT_EQ(headerError(readAll(), *machine), "");
}

TEST_F(SampleCheckpointFile, TruncationRejected)
{
    std::vector<char> bytes = readAll();
    bytes.resize(2); // Mid-magic.
    EXPECT_NE(headerError(bytes, *machine).find("truncated"),
              std::string::npos);
}

TEST_F(SampleCheckpointFile, BadMagicRejected)
{
    std::vector<char> bytes = readAll();
    bytes[0] ^= 0x40;
    EXPECT_NE(headerError(bytes, *machine).find("magic"),
              std::string::npos);
}

TEST_F(SampleCheckpointFile, VersionMismatchRejected)
{
    std::vector<char> bytes = readAll();
    bytes[4] = char(99); // Version word follows the 4-byte magic.
    EXPECT_NE(headerError(bytes, *machine).find("version"),
              std::string::npos);
}

TEST_F(SampleCheckpointFile, GeometryMismatchRejected)
{
    MachineConfig other = *machine;
    other.l1Size *= 2;
    EXPECT_NE(headerError(readAll(), other).find("geometry"),
              std::string::npos);
    other = *machine;
    other.l1LineSize *= 2;
    EXPECT_NE(headerError(readAll(), other).find("geometry"),
              std::string::npos);
}

TEST_F(SampleCheckpointFile, CorruptedBodyFailsResumeWithChecksum)
{
    // Flip one byte late in the body: the header still parses, the
    // full resume must report the checksum (or structure) failure
    // rather than silently continue from corrupt state.
    std::vector<char> bytes = readAll();
    bytes[bytes.size() - 5] ^= 0x01;
    const std::string corrupt = scratchPath("corrupt.oslp");
    {
        std::ofstream os(corrupt, std::ios::out | std::ios::binary |
                                      std::ios::trunc);
        os.write(bytes.data(), std::streamsize(bytes.size()));
    }
    const WorkloadProfile profile = smallProfile();
    SampleRunOptions opts;
    opts.resumeCheckpoint = corrupt;
    const SampleRunOutcome outcome = runSampled(
        [&]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<SynthTraceSource>(
                profile, CoherenceOptions::none());
        },
        *machine, profile.simOptions(), BlockScheme::Base, opts);
    EXPECT_FALSE(outcome.ok);
    EXPECT_NE(outcome.error.find("checksum"), std::string::npos)
        << outcome.error;
    fs::remove(corrupt);
}

TEST_F(SampleCheckpointFile, TruncatedBodyFailsResume)
{
    std::vector<char> bytes = readAll();
    bytes.resize(bytes.size() * 3 / 4);
    const std::string cut = scratchPath("truncated.oslp");
    {
        std::ofstream os(cut, std::ios::out | std::ios::binary |
                                  std::ios::trunc);
        os.write(bytes.data(), std::streamsize(bytes.size()));
    }
    const WorkloadProfile profile = smallProfile();
    SampleRunOptions opts;
    opts.resumeCheckpoint = cut;
    const SampleRunOutcome outcome = runSampled(
        [&]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<SynthTraceSource>(
                profile, CoherenceOptions::none());
        },
        *machine, profile.simOptions(), BlockScheme::Base, opts);
    EXPECT_FALSE(outcome.ok);
    fs::remove(cut);
}

// ---------------------------------------------------------------------
// End-to-end sanity: a sampled run accounts for the whole stream and
// its report is internally consistent.

TEST(SampleRun, ReportAccountsForTheWholeStream)
{
    const WorkloadProfile profile = smallProfile(WorkloadKind::Shell, 6);
    const CoherenceOptions coherence = CoherenceOptions::none();
    MachineConfig machine = MachineConfig::base();
    {
        const SynthTraceSource probe(profile, coherence);
        machine.numCpus = probe.numCpus();
    }
    SampleRunOptions opts;
    opts.plan.period = 15'000;
    opts.plan.warmup = 3'000;
    opts.plan.measure = 1'500;
    const SampleRunOutcome outcome = runSampled(
        [&]() -> std::unique_ptr<TraceSource> {
            return std::make_unique<SynthTraceSource>(profile, coherence);
        },
        machine, profile.simOptions(), BlockScheme::Base, opts);
    ASSERT_TRUE(outcome.ok) << outcome.error;
    ASSERT_NE(outcome.result.sample, nullptr);
    const SampleReport &report = *outcome.result.sample;

    EXPECT_GT(report.windows.size(), 2u);
    EXPECT_GT(report.totalRecords, 0u);
    EXPECT_EQ(report.replayedRecords + report.skippedRecords,
              report.totalRecords);
    EXPECT_GT(report.measuredRecords, 0u);
    EXPECT_LE(report.measuredRecords, report.replayedRecords);
    EXPECT_LT(report.replayedFraction(), 0.5);
    // The measured sink saw exactly the measured activity: its read
    // count matches the windows' sum.
    double window_reads = 0;
    for (const WindowSample &w : report.windows)
        window_reads += w.values[std::size_t(SampleMetric::OsReads)];
    EXPECT_DOUBLE_EQ(double(outcome.result.stats.osReads), window_reads);
    // Estimates carry CIs once enough windows exist.
    EXPECT_GT(report.of(SampleMetric::OsReads).halfwidth, 0.0);
    EXPECT_GT(report.of(SampleMetric::TotalTime).rate, 0.0);
}

} // namespace
} // namespace sample
} // namespace oscache

/**
 * @file
 * Tests of the verification subsystem (src/check): the coherence
 * invariant checker must catch seeded protocol defects and stay
 * silent on real traffic; the trace linter must catch each corrupted
 * stream; the lockset race detector must flag unlocked multi-writer
 * data and nothing else; and every seed workload must come out clean
 * under all three passes.
 */

#include <gtest/gtest.h>

#include <optional>

#include "check/invariants.hh"
#include "check/racedetect.hh"
#include "check/tracelint.hh"
#include "core/runner.hh"
#include "mem/memsys.hh"
#include "synth/generator.hh"

namespace oscache
{
namespace
{

bool
hasCode(const std::vector<CheckFinding> &findings, CheckCode code)
{
    for (const auto &f : findings)
        if (f.code == code)
            return true;
    return false;
}

AccessContext
osCtx(DataCategory cat = DataCategory::KernelOther)
{
    AccessContext ctx;
    ctx.os = true;
    ctx.category = cat;
    return ctx;
}

// ---------------------------------------------------------------------
// Coherence invariant checker.
// ---------------------------------------------------------------------

class CoherenceCheckerTest : public ::testing::Test
{
  protected:
    CoherenceCheckerTest()
        : machine(MachineConfig::base()), mem(machine), checker(machine)
    {
        mem.setObserver(&checker);
    }

    MachineConfig machine;
    MemorySystem mem;
    CoherenceChecker checker;
};

TEST_F(CoherenceCheckerTest, CleanOnSimpleSharing)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.read(1, 0x1000, 100, osCtx());
    mem.write(0, 0x1000, 200, osCtx());
    mem.read(1, 0x1000, 300, osCtx());
    checker.auditFull(mem);
    EXPECT_TRUE(checker.clean())
        << format(checker.findings().front());
    EXPECT_GT(checker.transitions(), 0u);
}

TEST_F(CoherenceCheckerTest, CleanOnMixedTraffic)
{
    // Reads, writes, prefetches, and code pressure from all four
    // processors over a working set that forces evictions.
    Cycles now = 0;
    for (int round = 0; round < 64; ++round) {
        for (CpuId c = 0; c < machine.numCpus; ++c) {
            const Addr a = 0x1000 + Addr(round % 16) * 32;
            now += 40;
            mem.read(c, a, now, osCtx());
            if (round % 3 == 0)
                mem.write(c, a, now + 10, osCtx());
            if (round % 5 == 0)
                mem.prefetch(c, a + 0x4000, now + 15, osCtx());
            if (round % 7 == 0)
                mem.codeFill(c, codeSpaceBase + Addr(round) * 64, 128);
        }
    }
    checker.auditFull(mem);
    EXPECT_TRUE(checker.clean())
        << format(checker.findings().front());
}

TEST_F(CoherenceCheckerTest, IllegalTransitionCaught)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.read(1, 0x1000, 100, osCtx());
    ASSERT_EQ(mem.l2State(0, 0x1000), LineState::Shared);
    // Silent S->E: exclusivity gained without a bus transaction.
    mem.debugSetL2State(0, 0x1000, LineState::Exclusive);
    EXPECT_TRUE(hasCode(checker.findings(), CheckCode::IllegalTransition));
}

TEST_F(CoherenceCheckerTest, SwmrViolationCaught)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.read(1, 0x1000, 100, osCtx());
    mem.debugSetL2State(0, 0x1000, LineState::Modified);
    mem.debugSetL2State(1, 0x1000, LineState::Modified);
    checker.auditFull(mem);
    EXPECT_TRUE(hasCode(checker.findings(), CheckCode::SwmrViolation));
}

TEST_F(CoherenceCheckerTest, InclusionViolationCaught)
{
    mem.read(0, 0x1000, 0, osCtx());
    ASSERT_TRUE(mem.l1Contains(0, 0x1000));
    // Kill the secondary copy behind the primary cache's back.
    mem.debugSetL2State(0, 0x1000, LineState::Invalid);
    checker.auditFull(mem);
    EXPECT_TRUE(hasCode(checker.findings(), CheckCode::InclusionViolation));
}

/** True iff @p findings hold a @p code finding about @p addr. */
bool
hasFinding(const std::vector<CheckFinding> &findings, CheckCode code,
           Addr addr)
{
    for (const auto &f : findings)
        if (f.code == code && f.addr == addr)
            return true;
    return false;
}

TEST_F(CoherenceCheckerTest, L2ChangedWhileDetachedCaught)
{
    mem.read(0, 0x1000, 0, osCtx());
    ASSERT_EQ(mem.l2State(0, 0x1000), LineState::Exclusive);
    // With the observer detached, one resident line changes state and
    // another is installed: neither reaches the shadow.
    mem.setObserver(nullptr);
    mem.debugSetL2State(0, 0x1000, LineState::Modified);
    mem.debugSetL2State(0, 0x3000, LineState::Shared);
    mem.setObserver(&checker);
    ASSERT_TRUE(checker.clean());
    checker.auditFull(mem);
    EXPECT_TRUE(hasFinding(checker.findings(), CheckCode::ShadowMismatch,
                           0x1000));
    EXPECT_TRUE(hasFinding(checker.findings(), CheckCode::ShadowMismatch,
                           0x3000));
}

TEST_F(CoherenceCheckerTest, PhantomL2ShadowEntryCaught)
{
    // A fill the secondary cache never performed.
    checker.onL2Transition(0, 0x5000, LineState::Invalid,
                           LineState::Shared);
    ASSERT_EQ(mem.l2State(0, 0x5000), LineState::Invalid);
    checker.auditFull(mem);
    EXPECT_TRUE(hasFinding(checker.findings(), CheckCode::ShadowMismatch,
                           0x5000));
}

TEST_F(CoherenceCheckerTest, UnreportedL1FillCaught)
{
    mem.read(0, 0x1000, 0, osCtx());
    ASSERT_TRUE(mem.l1Contains(0, 0x1000));
    // The shadow loses a primary line the cache still holds.
    checker.onL1Drop(0, 0x1000);
    checker.auditFull(mem);
    EXPECT_TRUE(hasFinding(checker.findings(), CheckCode::ShadowMismatch,
                           0x1000));
}

TEST_F(CoherenceCheckerTest, UnreportedL1DropCaught)
{
    // The shadow gains a primary line the cache never filled.
    checker.onL1Fill(0, 0x7000);
    ASSERT_FALSE(mem.l1Contains(0, 0x7000));
    checker.auditFull(mem);
    EXPECT_TRUE(hasFinding(checker.findings(), CheckCode::ShadowMismatch,
                           0x7000));
}

TEST_F(CoherenceCheckerTest, WriteLeavingLineSharedCaught)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.read(1, 0x1000, 100, osCtx());
    ASSERT_EQ(mem.l2State(0, 0x1000), LineState::Shared);
    ASSERT_FALSE(mem.isUpdateAddr(0x1000));
    ASSERT_TRUE(checker.clean());
    // A write that completed without gaining ownership.
    checker.onOperationEnd(mem, MemOpKind::Write, 0, 0x1000);
    EXPECT_TRUE(hasFinding(checker.findings(),
                           CheckCode::OwnershipViolation, 0x1000));
}

TEST_F(CoherenceCheckerTest, WriteBufferHorizonMovingBackwardsCaught)
{
    Cycles now = 0;
    for (Addr a = 0x1000; a < 0x1400; a += 32)
        now = mem.write(0, a, now, osCtx()).completeAt;
    ASSERT_GT(mem.l1WriteBuffer(0).lastCompletion(), 0u);
    ASSERT_TRUE(checker.clean());
    // A second machine's buffers start at cycle 0: seen through the
    // same checker, the completion horizon runs backwards.
    MemorySystem other(machine);
    checker.onOperationEnd(other, MemOpKind::Read, 0, 0x1000);
    EXPECT_TRUE(hasFinding(checker.findings(),
                           CheckCode::WriteBufferInconsistency, 0x1000));
}

TEST_F(CoherenceCheckerTest, MultiWriterLinesTracked)
{
    mem.read(0, 0x1000, 0, osCtx());
    mem.write(0, 0x1000, 100, osCtx());
    mem.write(1, 0x1000, 200, osCtx());
    EXPECT_EQ(checker.multiWriterLines(), std::vector<Addr>{0x1000});
    mem.write(0, 0x2000, 300, osCtx());
    EXPECT_EQ(checker.multiWriterLines(), std::vector<Addr>{0x1000});
}

TEST_F(CoherenceCheckerTest, CodeLinesNeverDoublyExclusive)
{
    // Both processors execute the same basic block; neither may end
    // up with a duplicate Exclusive copy of the code lines.
    mem.codeFill(0, codeSpaceBase, 256);
    mem.codeFill(1, codeSpaceBase, 256);
    for (Addr a = codeSpaceBase; a < codeSpaceBase + 256; a += 32) {
        const bool e0 = mem.l2State(0, a) == LineState::Exclusive ||
                        mem.l2State(0, a) == LineState::Modified;
        const bool e1 = mem.l2State(1, a) == LineState::Exclusive ||
                        mem.l2State(1, a) == LineState::Modified;
        EXPECT_FALSE(e0 && e1) << "line 0x" << std::hex << a;
    }
    checker.auditFull(mem);
    EXPECT_TRUE(checker.clean())
        << format(checker.findings().front());
}

// ---------------------------------------------------------------------
// Trace linter.
// ---------------------------------------------------------------------

TraceRecord
lockRecord(RecordType type, Addr addr)
{
    TraceRecord r;
    r.type = type;
    r.addr = addr;
    r.category = DataCategory::Lock;
    return r;
}

TraceRecord
barrierRecord(Addr addr, std::uint32_t parties)
{
    TraceRecord r;
    r.type = RecordType::BarrierArrive;
    r.addr = addr;
    r.aux = parties;
    r.category = DataCategory::Barrier;
    return r;
}

TraceRecord
blockOpRecord(RecordType type, BlockOpId id)
{
    TraceRecord r;
    r.type = type;
    r.aux = id;
    return r;
}

BlockOpId
addZeroOp(Trace &t)
{
    BlockOp op;
    op.dst = kernelSpaceBase + 0x10000;
    op.size = 4096;
    op.kind = BlockOpKind::Zero;
    return t.blockOps().add(op);
}

TEST(TraceLintTest, CleanMinimalTrace)
{
    Trace t(2);
    const Addr lock = kernelSpaceBase + 0x100;
    const BlockOpId id = addZeroOp(t);
    for (CpuId c = 0; c < 2; ++c) {
        auto &s = t.stream(c);
        s.push_back(TraceRecord::exec(10, 0, true));
        s.push_back(lockRecord(RecordType::LockAcquire, lock));
        s.push_back(TraceRecord::write(kernelSpaceBase + 0x200,
                                       DataCategory::OtherShared, 0, true));
        s.push_back(lockRecord(RecordType::LockRelease, lock));
        s.push_back(barrierRecord(kernelSpaceBase + 0x300, 2));
    }
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpBegin, id));
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpEnd, id));
    EXPECT_TRUE(lintTrace(t).empty());
}

TEST(TraceLintTest, UnbalancedBlockOpCaught)
{
    Trace t(1);
    const BlockOpId id = addZeroOp(t);
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpBegin, id));
    EXPECT_TRUE(hasCode(lintTrace(t), CheckCode::UnbalancedBlockOp));

    Trace u(1);
    const BlockOpId uid = addZeroOp(u);
    u.stream(0).push_back(blockOpRecord(RecordType::BlockOpEnd, uid));
    EXPECT_TRUE(hasCode(lintTrace(u), CheckCode::UnbalancedBlockOp));
}

TEST(TraceLintTest, MismatchedBlockOpEndCaught)
{
    Trace t(1);
    const BlockOpId a = addZeroOp(t);
    const BlockOpId b = addZeroOp(t);
    auto &s = t.stream(0);
    s.push_back(blockOpRecord(RecordType::BlockOpBegin, a));
    s.push_back(blockOpRecord(RecordType::BlockOpBegin, b));
    s.push_back(blockOpRecord(RecordType::BlockOpEnd, a));
    s.push_back(blockOpRecord(RecordType::BlockOpEnd, b));
    EXPECT_TRUE(hasCode(lintTrace(t), CheckCode::MismatchedBlockOpEnd));
}

TEST(TraceLintTest, UnknownBlockOpCaught)
{
    Trace t(1);
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpBegin, 7));
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpEnd, 7));
    EXPECT_TRUE(hasCode(lintTrace(t), CheckCode::UnknownBlockOp));
}

TEST(TraceLintTest, LockPairingDefectsCaught)
{
    const Addr lock = kernelSpaceBase + 0x100;

    Trace recursive(1);
    recursive.stream(0).push_back(lockRecord(RecordType::LockAcquire, lock));
    recursive.stream(0).push_back(lockRecord(RecordType::LockAcquire, lock));
    recursive.stream(0).push_back(lockRecord(RecordType::LockRelease, lock));
    EXPECT_TRUE(
        hasCode(lintTrace(recursive), CheckCode::RecursiveLockAcquire));

    Trace unpaired(1);
    unpaired.stream(0).push_back(lockRecord(RecordType::LockRelease, lock));
    EXPECT_TRUE(
        hasCode(lintTrace(unpaired), CheckCode::UnpairedLockRelease));

    Trace unreleased(1);
    unreleased.stream(0).push_back(
        lockRecord(RecordType::LockAcquire, lock));
    EXPECT_TRUE(hasCode(lintTrace(unreleased), CheckCode::UnreleasedLock));
}

TEST(TraceLintTest, BarrierDefectsCaught)
{
    const Addr bar = kernelSpaceBase + 0x300;

    // A 2-party barrier only one processor ever reaches.
    Trace missing(2);
    missing.stream(0).push_back(barrierRecord(bar, 2));
    EXPECT_TRUE(
        hasCode(lintTrace(missing), CheckCode::BarrierCountMismatch));

    // Unequal arrival counts deadlock the second episode.
    Trace unequal(2);
    unequal.stream(0).push_back(barrierRecord(bar, 2));
    unequal.stream(0).push_back(barrierRecord(bar, 2));
    unequal.stream(1).push_back(barrierRecord(bar, 2));
    EXPECT_TRUE(
        hasCode(lintTrace(unequal), CheckCode::BarrierCountMismatch));

    // More participants than the machine has processors.
    Trace oversub(2);
    oversub.stream(0).push_back(barrierRecord(bar, 3));
    oversub.stream(1).push_back(barrierRecord(bar, 3));
    EXPECT_TRUE(
        hasCode(lintTrace(oversub), CheckCode::BarrierCountMismatch));

    // The same barrier used with two different participant counts.
    Trace changed(2);
    changed.stream(0).push_back(barrierRecord(bar, 2));
    changed.stream(1).push_back(barrierRecord(bar, 1));
    EXPECT_TRUE(
        hasCode(lintTrace(changed), CheckCode::BarrierPartiesChanged));
}

TEST(TraceLintTest, CategoryRegionMismatchCaught)
{
    Trace t(1);
    // Shared kernel data cannot live at a user address.
    t.stream(0).push_back(TraceRecord::write(
        0x1000, DataCategory::OtherShared, 0, true));
    const auto findings = lintTrace(t);
    EXPECT_TRUE(hasCode(findings, CheckCode::CategoryRegionMismatch));
    EXPECT_EQ(countErrors(findings), 1u);

    Trace ok(1);
    // User data at a user address is fine.
    ok.stream(0).push_back(
        TraceRecord::write(0x1000, DataCategory::User, 0, false));
    EXPECT_TRUE(lintTrace(ok).empty());
}

TEST(TraceLintTest, NoProgressIsWarningOnly)
{
    Trace t(1);
    t.stream(0).push_back(TraceRecord::exec(0, 0, true));
    const auto findings = lintTrace(t);
    EXPECT_TRUE(hasCode(findings, CheckCode::NoProgress));
    EXPECT_EQ(countErrors(findings), 0u);
}

// ---------------------------------------------------------------------
// Table-driven defect matrix: one row per lint defect class, each
// producing exactly its own finding code, plus known-clean traces
// that must produce no findings at all.
// ---------------------------------------------------------------------

struct LintMatrixRow
{
    const char *name;
    Trace (*build)();
    /** Expected finding; nullopt for a known-clean trace. */
    std::optional<CheckCode> expected;
};

Trace
cleanHandBuilt()
{
    Trace t(2);
    const Addr lock = kernelSpaceBase + 0x100;
    const BlockOpId id = addZeroOp(t);
    for (CpuId c = 0; c < 2; ++c) {
        auto &s = t.stream(c);
        s.push_back(TraceRecord::exec(10, 0, true));
        s.push_back(lockRecord(RecordType::LockAcquire, lock));
        s.push_back(TraceRecord::write(kernelSpaceBase + 0x200,
                                       DataCategory::OtherShared, 0,
                                       true));
        s.push_back(lockRecord(RecordType::LockRelease, lock));
        s.push_back(barrierRecord(kernelSpaceBase + 0x300, 2));
    }
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpBegin, id));
    t.stream(0).push_back(blockOpRecord(RecordType::BlockOpEnd, id));
    return t;
}

Trace
cleanSynthetic()
{
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Shell);
    p.quanta = 1;
    return generateTrace(p, CoherenceOptions::none());
}

const LintMatrixRow lintMatrix[] = {
    {"unbalanced_block_op",
     [] {
         Trace t(1);
         t.stream(0).push_back(
             blockOpRecord(RecordType::BlockOpBegin, addZeroOp(t)));
         return t;
     },
     CheckCode::UnbalancedBlockOp},
    {"mismatched_block_op_end",
     [] {
         Trace t(1);
         const BlockOpId a = addZeroOp(t);
         const BlockOpId b = addZeroOp(t);
         auto &s = t.stream(0);
         s.push_back(blockOpRecord(RecordType::BlockOpBegin, a));
         s.push_back(blockOpRecord(RecordType::BlockOpBegin, b));
         s.push_back(blockOpRecord(RecordType::BlockOpEnd, a));
         s.push_back(blockOpRecord(RecordType::BlockOpEnd, b));
         return t;
     },
     CheckCode::MismatchedBlockOpEnd},
    {"unknown_block_op",
     [] {
         Trace t(1);
         t.stream(0).push_back(
             blockOpRecord(RecordType::BlockOpBegin, 42));
         t.stream(0).push_back(
             blockOpRecord(RecordType::BlockOpEnd, 42));
         return t;
     },
     CheckCode::UnknownBlockOp},
    {"unpaired_lock_release",
     [] {
         Trace t(1);
         t.stream(0).push_back(
             lockRecord(RecordType::LockRelease, kernelSpaceBase + 0x100));
         return t;
     },
     CheckCode::UnpairedLockRelease},
    {"recursive_lock_acquire",
     [] {
         Trace t(1);
         const Addr lock = kernelSpaceBase + 0x100;
         auto &s = t.stream(0);
         s.push_back(lockRecord(RecordType::LockAcquire, lock));
         s.push_back(lockRecord(RecordType::LockAcquire, lock));
         s.push_back(lockRecord(RecordType::LockRelease, lock));
         return t;
     },
     CheckCode::RecursiveLockAcquire},
    {"unreleased_lock",
     [] {
         Trace t(1);
         t.stream(0).push_back(
             lockRecord(RecordType::LockAcquire, kernelSpaceBase + 0x100));
         return t;
     },
     CheckCode::UnreleasedLock},
    {"barrier_count_mismatch",
     [] {
         Trace t(2);
         t.stream(0).push_back(
             barrierRecord(kernelSpaceBase + 0x300, 2));
         return t;
     },
     CheckCode::BarrierCountMismatch},
    {"barrier_parties_changed",
     [] {
         Trace t(2);
         t.stream(0).push_back(
             barrierRecord(kernelSpaceBase + 0x300, 2));
         t.stream(1).push_back(
             barrierRecord(kernelSpaceBase + 0x300, 1));
         return t;
     },
     CheckCode::BarrierPartiesChanged},
    {"category_region_mismatch",
     [] {
         Trace t(1);
         t.stream(0).push_back(TraceRecord::write(
             0x1000, DataCategory::OtherShared, 0, true));
         return t;
     },
     CheckCode::CategoryRegionMismatch},
    {"no_progress",
     [] {
         Trace t(1);
         t.stream(0).push_back(TraceRecord::exec(0, 0, true));
         return t;
     },
     CheckCode::NoProgress},
    {"clean_hand_built", cleanHandBuilt, std::nullopt},
    {"clean_synthetic_shell", cleanSynthetic, std::nullopt},
};

TEST(TraceLintMatrixTest, EveryDefectClassCaughtAndCleanTracesPass)
{
    for (const LintMatrixRow &row : lintMatrix) {
        SCOPED_TRACE(row.name);
        const Trace trace = row.build();
        const auto findings = lintTrace(trace);
        if (!row.expected) {
            EXPECT_TRUE(findings.empty())
                << "clean trace produced "
                << (findings.empty() ? "" : format(findings.front()));
            continue;
        }
        EXPECT_TRUE(hasCode(findings, *row.expected))
            << "expected " << toString(*row.expected);
        // A defect trace must not trip unrelated checks: every
        // finding it produces carries the expected code.
        for (const CheckFinding &f : findings)
            EXPECT_EQ(f.code, *row.expected) << format(f);
    }
}

TEST(TraceLintMatrixTest, MatrixAgreesWithStreamingLinter)
{
    // lintSource() must report the same codes as lintTrace() on every
    // matrix row (the streaming path is what oscache-lint uses).
    for (const LintMatrixRow &row : lintMatrix) {
        SCOPED_TRACE(row.name);
        Trace trace = row.build();
        const auto direct = lintTrace(trace);
        MaterializedTraceSource source(trace);
        const auto streamed = lintSource(source);
        ASSERT_EQ(direct.size(), streamed.size());
        for (std::size_t i = 0; i < direct.size(); ++i)
            EXPECT_EQ(direct[i].code, streamed[i].code) << i;
    }
}

// ---------------------------------------------------------------------
// Lockset race detector.
// ---------------------------------------------------------------------

TEST(RaceDetectTest, UnlockedSharedWriteFlagged)
{
    Trace t(2);
    const Addr shared = kernelSpaceBase + 0x400;
    for (CpuId c = 0; c < 2; ++c)
        t.stream(c).push_back(TraceRecord::write(
            shared, DataCategory::OtherShared, 0, true));
    const auto findings = detectRaces(t);
    ASSERT_TRUE(hasCode(findings, CheckCode::UnlockedSharedWrite));
    EXPECT_EQ(countErrors(findings), 1u);
}

TEST(RaceDetectTest, ConsistentLockNotFlagged)
{
    Trace t(2);
    const Addr lock = kernelSpaceBase + 0x100;
    const Addr shared = kernelSpaceBase + 0x400;
    for (CpuId c = 0; c < 2; ++c) {
        auto &s = t.stream(c);
        s.push_back(lockRecord(RecordType::LockAcquire, lock));
        s.push_back(TraceRecord::write(shared, DataCategory::OtherShared,
                                       0, true));
        s.push_back(lockRecord(RecordType::LockRelease, lock));
    }
    EXPECT_TRUE(detectRaces(t).empty());
}

TEST(RaceDetectTest, InconsistentLocksetsFlagged)
{
    // Each writer holds *a* lock, just never the same one.
    Trace t(2);
    const Addr shared = kernelSpaceBase + 0x400;
    for (CpuId c = 0; c < 2; ++c) {
        const Addr lock = kernelSpaceBase + 0x100 + Addr(c) * 64;
        auto &s = t.stream(c);
        s.push_back(lockRecord(RecordType::LockAcquire, lock));
        s.push_back(TraceRecord::write(shared, DataCategory::OtherShared,
                                       0, true));
        s.push_back(lockRecord(RecordType::LockRelease, lock));
    }
    EXPECT_TRUE(hasCode(detectRaces(t), CheckCode::UnlockedSharedWrite));
}

TEST(RaceDetectTest, SingleWriterNotFlagged)
{
    Trace t(2);
    const Addr shared = kernelSpaceBase + 0x400;
    t.stream(0).push_back(TraceRecord::write(
        shared, DataCategory::OtherShared, 0, true));
    t.stream(0).push_back(TraceRecord::write(
        shared, DataCategory::OtherShared, 0, true));
    EXPECT_TRUE(detectRaces(t).empty());
}

TEST(RaceDetectTest, FreqSharedIsWarningOnly)
{
    // Unlocked producer-consumer traffic on FreqShared data is part
    // of the workload model; it must be reported but not fail a run.
    Trace t(2);
    const Addr shared = kernelSpaceBase + 0x400;
    for (CpuId c = 0; c < 2; ++c)
        t.stream(c).push_back(TraceRecord::write(
            shared, DataCategory::FreqShared, 0, true));
    const auto findings = detectRaces(t);
    ASSERT_TRUE(hasCode(findings, CheckCode::UnlockedSharedWrite));
    EXPECT_EQ(countErrors(findings), 0u);
}

TEST(RaceDetectTest, CrossCheckAnnotatesFindings)
{
    Trace t(2);
    const Addr shared = kernelSpaceBase + 0x400;
    for (CpuId c = 0; c < 2; ++c)
        t.stream(c).push_back(TraceRecord::write(
            shared, DataCategory::OtherShared, 0, true));
    const std::vector<Addr> lines{alignDown(shared, 32)};
    RaceCrossCheck cross;
    cross.multiWriterLines = &lines;
    cross.lineSize = 32;
    const auto findings = detectRaces(t, cross);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_NE(findings.front().message.find("multiple"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// Seed workloads: every profile must come out clean.
// ---------------------------------------------------------------------

TEST(SeedWorkloadTest, AllProfilesLintCleanAndRaceFree)
{
    for (WorkloadKind kind : allWorkloads) {
        WorkloadProfile p = WorkloadProfile::forKind(kind);
        p.quanta = 4;
        const SystemSetup setup = SystemSetup::forKind(SystemKind::Base);
        const Trace trace = generateTrace(p, setup.coherence);

        const auto lint = lintTrace(trace);
        EXPECT_EQ(countErrors(lint), 0u)
            << toString(kind) << ": " << format(lint.front());

        const auto races = detectRaces(trace);
        EXPECT_EQ(countErrors(races), 0u)
            << toString(kind) << ": " << format(races.front());
    }
}

TEST(SeedWorkloadTest, InvariantCheckerCleanEndToEnd)
{
    // runOnTrace attaches the coherence checker by default
    // (SimOptions::checkCoherence) and panics on any violation, so
    // completing these runs is the assertion.
    for (SystemKind system : {SystemKind::Base, SystemKind::BCohRelUp,
                              SystemKind::BlkDma}) {
        WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Trfd4);
        p.quanta = 4;
        const SystemSetup setup = SystemSetup::forKind(system);
        const Trace trace = generateTrace(p, setup.coherence);
        SimOptions opts = p.simOptions();
        ASSERT_TRUE(opts.checkCoherence);
        const RunResult r = runOnTrace(trace, MachineConfig::base(), opts,
                                       setup);
        EXPECT_GT(r.stats.osTime(), 0u) << toString(system);
    }
}

} // namespace
} // namespace oscache

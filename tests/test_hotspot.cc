/**
 * @file
 * Tests of the Section 6 hot-spot machinery: selection of the
 * hottest basic blocks, prefetch insertion with bounded lookahead
 * (PrefetchStreamSource), and coverage computation.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "core/hotspot/hotspot.hh"
#include "testutil.hh"

namespace oscache
{
namespace
{

SimStats
profileWith(std::initializer_list<std::pair<BasicBlockId, std::uint64_t>>
                counts)
{
    SimStats stats;
    for (const auto &[bb, n] : counts)
        stats.osOtherMissByBb[bb] = n;
    return stats;
}

TEST(HotspotSelectTest, PicksTopBlocks)
{
    const SimStats profile =
        profileWith({{1, 100}, {2, 50}, {3, 200}, {4, 10}});
    const HotspotPlan plan = selectHotspots(profile, 2);
    EXPECT_EQ(plan.hotBlocks.size(), 2u);
    EXPECT_TRUE(plan.hotBlocks.count(3));
    EXPECT_TRUE(plan.hotBlocks.count(1));
    EXPECT_FALSE(plan.hotBlocks.count(4));
}

TEST(HotspotSelectTest, FewerBlocksThanRequested)
{
    const SimStats profile = profileWith({{1, 5}});
    const HotspotPlan plan = selectHotspots(profile, 12);
    EXPECT_EQ(plan.hotBlocks.size(), 1u);
}

TEST(HotspotSelectTest, EmptyProfile)
{
    const SimStats profile;
    const HotspotPlan plan = selectHotspots(profile, 12);
    EXPECT_TRUE(plan.hotBlocks.empty());
    EXPECT_EQ(hotspotCoverage(profile, plan), 0.0);
}

TEST(HotspotSelectTest, DeterministicTieBreak)
{
    const SimStats profile = profileWith({{7, 50}, {3, 50}, {9, 50}});
    const HotspotPlan a = selectHotspots(profile, 2);
    const HotspotPlan b = selectHotspots(profile, 2);
    EXPECT_EQ(a.hotBlocks, b.hotBlocks);
    EXPECT_TRUE(a.hotBlocks.count(3)); // Lowest id wins ties.
}

TEST(HotspotSelectTest, CoverageFraction)
{
    const SimStats profile =
        profileWith({{1, 60}, {2, 30}, {3, 10}});
    const HotspotPlan plan = selectHotspots(profile, 1);
    EXPECT_DOUBLE_EQ(hotspotCoverage(profile, plan), 0.6);
}

/** What a PrefetchStreamSource over @p trace emits, per cpu. */
std::vector<std::vector<TraceRecord>>
withPrefetches(const Trace &trace, const HotspotPlan &plan)
{
    PrefetchStreamSource source(
        std::make_unique<MaterializedTraceSource>(trace), plan);
    return testutil::drain(source);
}

TEST(HotspotInsertTest, PrefetchInsertedAheadOfRead)
{
    Trace trace(1);
    auto &s = trace.stream(0);
    for (int i = 0; i < 20; ++i)
        s.push_back(TraceRecord::exec(10, 99, true));
    s.push_back(TraceRecord::read(0x1234, DataCategory::PageTable, 7,
                                  true));
    HotspotPlan plan;
    plan.hotBlocks.insert(7);
    plan.lookahead = 5;

    const auto out = withPrefetches(trace, plan);
    const auto &os = out[0];
    ASSERT_EQ(os.size(), s.size() + 1);
    // The prefetch sits exactly `lookahead` records before the read.
    const std::size_t read_pos = os.size() - 1;
    const std::size_t pref_pos = read_pos - plan.lookahead - 1;
    EXPECT_EQ(os[pref_pos].type, RecordType::Prefetch);
    EXPECT_EQ(os[pref_pos].addr, 0x1234u);
    EXPECT_EQ(os[read_pos].type, RecordType::Read);
}

TEST(HotspotInsertTest, ColdBlocksUntouched)
{
    Trace trace(1);
    trace.stream(0).push_back(
        TraceRecord::read(0x1000, DataCategory::PageTable, 7, true));
    HotspotPlan plan;
    plan.hotBlocks.insert(8); // Different block.
    EXPECT_EQ(withPrefetches(trace, plan)[0].size(), 1u);
}

TEST(HotspotInsertTest, LookaheadClampedAtStreamStart)
{
    Trace trace(1);
    trace.stream(0).push_back(
        TraceRecord::read(0x1000, DataCategory::PageTable, 7, true));
    HotspotPlan plan;
    plan.hotBlocks.insert(7);
    plan.lookahead = 100;
    const auto out = withPrefetches(trace, plan);
    ASSERT_EQ(out[0].size(), 2u);
    EXPECT_EQ(out[0][0].type, RecordType::Prefetch);

    // Three hot reads at the stream head: every read the priming
    // window scans (input indices 0..lookahead) has its prefetch
    // clamped to index 0, in scan order; a later one lands
    // lookahead records ahead of its read.
    Trace head(1);
    for (Addr a : {0x1000u, 0x2000u, 0x3000u})
        head.stream(0).push_back(
            TraceRecord::read(a, DataCategory::PageTable, 7, true));
    head.stream(0).push_back(TraceRecord::exec(4, 99, true));
    const auto pref = [](Addr a) {
        return TraceRecord::prefetch(a, DataCategory::PageTable, 7, true);
    };
    const auto &in = head.stream(0);

    plan.lookahead = 12;
    EXPECT_EQ(withPrefetches(head, plan)[0],
              (std::vector<TraceRecord>{pref(0x1000), pref(0x2000),
                                        pref(0x3000), in[0], in[1], in[2],
                                        in[3]}));
    plan.lookahead = 1;
    EXPECT_EQ(withPrefetches(head, plan)[0],
              (std::vector<TraceRecord>{pref(0x1000), pref(0x2000), in[0],
                                        pref(0x3000), in[1], in[2],
                                        in[3]}));
}

TEST(HotspotInsertTest, PreservesRecordOrder)
{
    Trace trace(2);
    for (int i = 0; i < 50; ++i) {
        trace.stream(0).push_back(TraceRecord::exec(unsigned(i + 1), 1,
                                                    true));
        trace.stream(1).push_back(
            TraceRecord::read(0x1000 + 16 * i, DataCategory::PageTable, 7,
                              true));
    }
    HotspotPlan plan;
    plan.hotBlocks.insert(7);
    plan.lookahead = 3;
    const auto out = withPrefetches(trace, plan);
    // Stream 0 untouched.
    ASSERT_EQ(out[0].size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(out[0][i].aux, unsigned(i + 1));
    // Stream 1: original reads still in order.
    std::vector<Addr> reads;
    for (const auto &rec : out[1])
        if (rec.type == RecordType::Read)
            reads.push_back(rec.addr);
    ASSERT_EQ(reads.size(), 50u);
    for (int i = 1; i < 50; ++i)
        EXPECT_LT(reads[i - 1], reads[i]);
}

TEST(HotspotInsertTest, ForwardsBlockOpsAndUpdatePages)
{
    Trace trace(1);
    trace.blockOps().add(BlockOp{});
    trace.updatePages().insert(0x4000);
    PrefetchStreamSource source(
        std::make_unique<MaterializedTraceSource>(trace), HotspotPlan{});
    // The inner source's tables themselves, not copies.
    EXPECT_EQ(&source.blockOps(), &trace.blockOps());
    EXPECT_EQ(&source.updatePages(), &trace.updatePages());
    EXPECT_EQ(source.blockOps().size(), 1u);
    EXPECT_TRUE(source.updatePages().count(0x4000));
}

TEST(HotspotInsertTest, PrefetchInheritsAnnotations)
{
    Trace trace(1);
    trace.stream(0).push_back(
        TraceRecord::read(0x1000, DataCategory::PageTable, 7, true));
    HotspotPlan plan;
    plan.hotBlocks.insert(7);
    const auto out = withPrefetches(trace, plan);
    const auto &pref = out[0][0];
    EXPECT_EQ(pref.category, DataCategory::PageTable);
    EXPECT_EQ(pref.bb, 7u);
    EXPECT_TRUE(pref.isOs());
}

} // namespace
} // namespace oscache

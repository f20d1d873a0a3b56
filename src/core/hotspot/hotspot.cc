#include "core/hotspot/hotspot.hh"

#include <algorithm>
#include <deque>
#include <ostream>
#include <utility>
#include <vector>

namespace oscache
{

HotspotPlan
selectHotspotsFromCounts(
    const std::unordered_map<BasicBlockId, std::uint64_t> &counts,
    unsigned count)
{
    std::vector<std::pair<BasicBlockId, std::uint64_t>> ranked(
        counts.begin(), counts.end());
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  if (a.second != b.second)
                      return a.second > b.second;
                  return a.first < b.first; // Deterministic tie-break.
              });
    HotspotPlan plan;
    for (unsigned i = 0; i < count && i < ranked.size(); ++i)
        plan.hotBlocks.insert(ranked[i].first);
    return plan;
}

HotspotPlan
selectHotspots(const SimStats &profile, unsigned count)
{
    return selectHotspotsFromCounts(profile.osOtherMissByBb, count);
}

bool
hotspotCrossCheck(
    const SimStats &stats,
    const std::unordered_map<BasicBlockId, std::uint64_t> &profiled,
    unsigned count, std::ostream *os)
{
    const HotspotPlan fromStats = selectHotspotsFromCounts(
        stats.osOtherMissByBb, count);
    const HotspotPlan fromProfiler =
        selectHotspotsFromCounts(profiled, count);
    const bool agree = fromStats.hotBlocks == fromProfiler.hotBlocks;
    if (os != nullptr) {
        if (agree) {
            *os << "hot-spot cross-check: AGREE (" << count
                << " blocks, engine == profiler)\n";
        } else {
            *os << "hot-spot cross-check: DISAGREE\n";
            for (const BasicBlockId bb : fromStats.hotBlocks)
                if (!fromProfiler.hotBlocks.count(bb))
                    *os << "  engine only: bb " << bb << "\n";
            for (const BasicBlockId bb : fromProfiler.hotBlocks)
                if (!fromStats.hotBlocks.count(bb))
                    *os << "  profiler only: bb " << bb << "\n";
        }
    }
    return agree;
}

double
hotspotCoverage(const SimStats &profile, const HotspotPlan &plan)
{
    std::uint64_t covered = 0;
    std::uint64_t total = 0;
    for (const auto &[bb, misses] : profile.osOtherMissByBb) {
        total += misses;
        if (plan.hotBlocks.count(bb))
            covered += misses;
    }
    return total == 0 ? 0.0
                      : static_cast<double>(covered) /
                            static_cast<double>(total);
}

/**
 * Sliding-window insertion.  With lookahead L, the prefetch for a
 * hot read at input index i lands at max(i - L, 0), so knowing
 * every prefetch due before input index j only requires having
 * scanned through index j + L.  The cursor keeps exactly that
 * window: priming scans indices 0..L (their prefetches all land at
 * 0, in scan order), and each consumed input record pulls one more
 * record in, queueing its prefetch L records ahead.
 */
class PrefetchStreamSource::Cursor final : public RecordCursor
{
  public:
    Cursor(std::unique_ptr<RecordCursor> input, const HotspotPlan &p)
        : in(std::move(input)), plan(&p)
    {
        // Prime the window with input indices 0..lookahead.
        for (unsigned i = 0; i <= p.lookahead; ++i)
            if (!pullOne(0))
                break;
    }

    const TraceRecord *
    peek() override
    {
        if (!pending.empty() && pending.front().at == outIndex)
            return &pending.front().rec;
        return window.empty() ? nullptr : &window.front();
    }

    void
    advance() override
    {
        if (!pending.empty() && pending.front().at == outIndex) {
            pending.pop_front();
            return;
        }
        window.pop_front();
        outIndex += 1;
        pullOne(outIndex);
    }

  private:
    struct Pending
    {
        std::size_t at; ///< Input index the prefetch precedes.
        TraceRecord rec;
    };

    /**
     * Pull one record off the inner cursor into the window; a hot
     * read queues its prefetch for insertion at @p insert_at.
     */
    bool
    pullOne(std::size_t insert_at)
    {
        const TraceRecord *rec = in->peek();
        if (rec == nullptr)
            return false;
        window.push_back(*rec);
        in->advance();
        const TraceRecord &r = window.back();
        if (r.type == RecordType::Read && plan->hotBlocks.count(r.bb))
            pending.push_back(
                {insert_at, TraceRecord::prefetch(r.addr, r.category,
                                                  r.bb, r.isOs())});
        return true;
    }

    std::unique_ptr<RecordCursor> in;
    const HotspotPlan *plan;
    std::deque<TraceRecord> window;
    std::deque<Pending> pending;
    std::size_t outIndex = 0; ///< Input index of window.front().
};

PrefetchStreamSource::PrefetchStreamSource(
    std::unique_ptr<TraceSource> inner_, HotspotPlan plan_)
    : inner(std::move(inner_)), plan(std::move(plan_))
{}

std::unique_ptr<RecordCursor>
PrefetchStreamSource::cursor(CpuId cpu)
{
    return std::make_unique<Cursor>(inner->cursor(cpu), plan);
}

} // namespace oscache

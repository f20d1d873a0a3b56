/**
 * @file
 * Flat miss-classification mark table.
 *
 * The replay engine classifies every primary-cache miss by consulting
 * small per-line mark sets: "this line was invalidated by coherence",
 * "this line was displaced by a block operation", "this line was
 * bypassed".  Three separate std::unordered_set<Addr> instances made
 * every miss pay up to three node-based hash walks and every fill up
 * to three erases.  MarkTable replaces them with one open-addressing
 * table mapping a line address to a small flag set, so the common
 * classify-then-clear sequence costs a single linear probe over a
 * contiguous array.
 *
 * The table is a FlatTable<3> (mem/flat_table.hh): each slot is a
 * single 64-bit word holding the line address shifted up by the flag
 * width with the flags packed into the freed low bits — a probe
 * touches exactly one cache line and reads both mark classes at once.
 * A clear that drops a line's last flag removes the key outright via
 * backward-shift deletion, so the table never accumulates dead
 * entries and its load factor tracks the live mark population
 * exactly.  Per-flag population counters make the "is
 * this whole mark class empty" test O(1), which is what keeps
 * schemes that never bypass from ever probing for bypass marks.
 */

#ifndef OSCACHE_MEM_MARKS_HH
#define OSCACHE_MEM_MARKS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "mem/flat_table.hh"

namespace oscache
{

/**
 * Open-addressing line-address -> mark-flags table.
 */
class MarkTable
{
  public:
    /** @name Mark classes (bit flags) @{ */
    static constexpr std::uint8_t coherence = 1; ///< Invalidated by snoop.
    static constexpr std::uint8_t blockEvict = 2; ///< Displaced by block op.
    static constexpr std::uint8_t bypass = 4;     ///< Fetched w/o allocate.
    /** @} */

    /** Flags recorded for @p line (0 when unmarked). */
    std::uint8_t
    flagsAt(Addr line) const
    {
        const Table::Word *v = table.find(line);
        return v == nullptr ? 0 : std::uint8_t(Table::valueOf(*v));
    }

    bool test(Addr line, std::uint8_t flag) const
    {
        return (flagsAt(line) & flag) != 0;
    }

    /** Record @p flag for @p line. */
    void
    set(Addr line, std::uint8_t flag)
    {
        Table::Word &v = table.locate(line);
        if ((v & flag) == 0) {
            v |= flag;
            bump(flag, +1);
        }
    }

    /** Drop @p flag from @p line (no-op when not set). */
    void
    clear(Addr line, std::uint8_t flag)
    {
        clearAll(line, flag);
    }

    /** Drop every flag in @p flag_mask from @p line in one probe. */
    void
    clearAll(Addr line, std::uint8_t flag_mask)
    {
        Table::Word *v = table.find(line);
        if (v == nullptr)
            return;
        const std::uint8_t dropped =
            std::uint8_t(*v & flag_mask & Table::valueMask);
        if (dropped == 0)
            return;
        *v &= ~Table::Word(dropped);
        for (std::uint8_t f = 1; f <= bypass; f <<= 1)
            if ((dropped & f) != 0)
                bump(f, -1);
        if (Table::valueOf(*v) == 0)
            table.eraseSlot(*v);
    }

    /** Number of lines currently carrying @p flag. */
    std::size_t
    population(std::uint8_t flag) const
    {
        return counts[countIndex(flag)];
    }

    bool any(std::uint8_t flag) const { return population(flag) != 0; }

    /** Sorted lines carrying @p flag (deterministic serialization). */
    std::vector<Addr>
    snapshot(std::uint8_t flag) const
    {
        std::vector<Addr> lines;
        lines.reserve(population(flag));
        table.forEach([&](Table::Word v) {
            if ((v & flag) != 0)
                lines.push_back(Table::keyOf(v));
        });
        std::sort(lines.begin(), lines.end());
        return lines;
    }

    /** Drop every mark of @p flag (used when restoring state). */
    void
    clearClass(std::uint8_t flag)
    {
        // clear() drops a line's key with its last flag, so no
        // flag-free key stays resident.
        for (const Addr line : snapshot(flag))
            clear(line, flag);
    }

  private:
    /**
     * Flag bits live in the low bits of the packed slot word; the
     * line address occupies the rest, so a probe reads both mark
     * classes at once.
     */
    using Table = FlatTable<3>;

    static constexpr std::size_t
    countIndex(std::uint8_t flag)
    {
        return flag == coherence ? 0 : flag == blockEvict ? 1 : 2;
    }

    void
    bump(std::uint8_t flag, int delta)
    {
        counts[countIndex(flag)] =
            std::size_t(std::ptrdiff_t(counts[countIndex(flag)]) + delta);
    }

    Table table;
    /** Live marks per class: [coherence, blockEvict, bypass]. */
    std::size_t counts[3] = {0, 0, 0};
};

} // namespace oscache

#endif // OSCACHE_MEM_MARKS_HH

/**
 * @file
 * Open-addressing core of the simulator's line-keyed tables.
 *
 * FlatTable keeps one 64-bit word per key in a power-of-two slot
 * array: linear probing from a Fibonacci-hashed home slot, deletion
 * by backward shift (no tombstones, so the load factor tracks the
 * live population exactly), and doubling at 70% load.  A word packs
 * the key shifted up by @p ValueBits with a small value in the freed
 * low bits, so one probe reads key and value in a single load.
 *
 * The miss-classification MarkTable (mem/marks.hh) and the coherence
 * checker's shadow state (check/invariants.hh) are built on it; this
 * is the only probe/delete implementation in the tree.
 */

#ifndef OSCACHE_MEM_FLAT_TABLE_HH
#define OSCACHE_MEM_FLAT_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hh"

namespace oscache
{

/**
 * Open-addressing key -> @p ValueBits-bit value table.  Keys must stay
 * below 2^(64 - ValueBits); simulated addresses are far below that.
 */
template <unsigned ValueBits>
class FlatTable
{
    static_assert(ValueBits < 32, "the key needs the high bits");

  public:
    using Word = std::uint64_t;
    static constexpr Word valueMask = (Word{1} << ValueBits) - 1;

    /** Word of a fresh entry for @p key (value 0). */
    static constexpr Word
    keyWord(Addr key)
    {
        return Word(key) << ValueBits;
    }

    static constexpr Addr keyOf(Word w) { return Addr(w >> ValueBits); }
    static constexpr Word valueOf(Word w) { return w & valueMask; }

    explicit FlatTable(std::size_t initial_slots = 1024)
    {
        rebuild(initial_slots);
    }

    /** Live entries. */
    std::size_t size() const { return used; }

    /** The word holding @p key, or nullptr when absent. */
    const Word *
    find(Addr key) const
    {
        const Word k = keyWord(key);
        std::size_t i = home(key);
        while (true) {
            const Word &v = slots[i];
            if ((v & ~valueMask) == k)
                return &v;
            if (v == emptySlot)
                return nullptr;
            i = (i + 1) & mask;
        }
    }

    Word *
    find(Addr key)
    {
        return const_cast<Word *>(std::as_const(*this).find(key));
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /**
     * The word holding @p key, claiming an empty slot (value 0) when
     * absent.  The reference is valid until the next locate() or
     * erase.
     */
    Word &
    locate(Addr key)
    {
        const Word k = keyWord(key);
        std::size_t i = home(key);
        while (true) {
            Word &v = slots[i];
            if ((v & ~valueMask) == k)
                return v;
            if (v == emptySlot) {
                if (used + 1 > (slots.size() * 7) / 10) {
                    grow();
                    return locate(key);
                }
                v = k;
                ++used;
                return v;
            }
            i = (i + 1) & mask;
        }
    }

    /** Remove the entry whose word @p slot find()/locate() returned. */
    void
    eraseSlot(Word &slot)
    {
        removeSlot(std::size_t(&slot - slots.data()));
    }

    /** Remove @p key (no-op when absent). */
    void
    erase(Addr key)
    {
        if (Word *w = find(key))
            eraseSlot(*w);
    }

    /** Call @p f(word) for every live entry, in slot order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const Word v : slots)
            if (v != emptySlot)
                f(v);
    }

  private:
    /** All-ones: keyWord(key) can never produce it. */
    static constexpr Word emptySlot = ~Word{0};

    std::size_t
    home(Addr key) const
    {
        // Fibonacci multiplicative spread of the key bits.
        return std::size_t((key * 0x9E3779B97F4A7C15ull) >> 32) & mask;
    }

    /**
     * Unlink slot @p i and backward-shift the probe chain behind it
     * so every remaining key stays reachable from its home slot.
     */
    void
    removeSlot(std::size_t i)
    {
        std::size_t hole = i;
        std::size_t j = i;
        while (true) {
            j = (j + 1) & mask;
            const Word v = slots[j];
            if (v == emptySlot)
                break;
            const std::size_t h = home(keyOf(v));
            // Move v into the hole unless its home lies strictly
            // between the hole and its current slot (then the hole
            // does not break its probe chain).
            if (((j - h) & mask) >= ((j - hole) & mask)) {
                slots[hole] = v;
                hole = j;
            }
        }
        slots[hole] = emptySlot;
        --used;
    }

    /** Double the table (every resident entry is live). */
    void
    grow()
    {
        std::vector<Word> old = std::move(slots);
        rebuild(old.size() * 2);
        for (const Word v : old) {
            if (v == emptySlot)
                continue;
            std::size_t i = home(keyOf(v));
            while (slots[i] != emptySlot)
                i = (i + 1) & mask;
            slots[i] = v;
            ++used;
        }
    }

    void
    rebuild(std::size_t n)
    {
        slots.assign(n, emptySlot);
        mask = n - 1;
        used = 0;
    }

    std::vector<Word> slots;
    std::size_t mask = 0;
    std::size_t used = 0;
};

} // namespace oscache

#endif // OSCACHE_MEM_FLAT_TABLE_HH

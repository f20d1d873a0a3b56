/**
 * @file
 * The coherence invariant checker.
 *
 * CoherenceChecker implements MemEventObserver: attached to a
 * MemorySystem with setObserver(), it shadows every secondary-cache
 * line state and every primary-cache residency, and machine-checks
 * the protocol invariants the simulator's miss taxonomy depends on:
 *
 *  - **edge legality** (eager, on every transition): a line never
 *    takes a MESI edge the Illinois protocol cannot produce — no
 *    silent gain of exclusivity (S->E), no clean-downgrade of dirty
 *    data (M->E), and no Exclusive state at all under plain MSI;
 *
 *  - **SWMR** (deferred to operation boundaries): at most one
 *    Modified/Exclusive copy of a line machine-wide, and an owner
 *    never coexists with sharers;
 *
 *  - **inclusion** (deferred): every primary-resident line is
 *    covered by a valid secondary line on the same processor;
 *
 *  - **write ownership**: a completed write leaves the writer's
 *    secondary line Modified (or Shared on a Firefly update page);
 *
 *  - **write-buffer consistency**: both write buffers drain in FIFO
 *    order and their completion horizon never moves backwards.
 *
 * SWMR and inclusion are checked at onOperationEnd rather than per
 * transition because mid-operation the protocol legitimately passes
 * through inconsistent intermediate states (snoop invalidation
 * clears the secondary line before its covered primary lines).
 *
 * auditFull() runs a final whole-machine sweep: the shadow state is
 * compared against the real tag arrays (catching missed or phantom
 * notifications) and the global invariants are re-checked over every
 * resident line, not just recently touched ones.
 *
 * The checker also records which lines were written (entered
 * Modified) by more than one processor; the race detector
 * cross-checks its lockset findings against this set.
 *
 * Edge legality is not written down here: the 4x4 edge matrix is
 * derived at compile time from src/verif's constexpr scheme tables
 * (the union of the legal edges of the configured protocol's
 * schemes), so the checker and the conformance pass enforce one spec.
 *
 * All shadow state lives in flat open-addressing tables keyed by line
 * address (mem/flat_table.hh) — never by the engine's (set, way), so
 * the shadow stays independent of the tag arrays it audits.  Each
 * per-processor secondary shadow packs a line and its two-bit state
 * into one word, each primary shadow is a line set, and one table
 * maps every written line to its first writer plus a "second writer
 * seen" bit.  Lines touched since the last operation boundary are
 * gathered in a vector that onOperationEnd sorts and deduplicates, so
 * the hot path allocates nothing per event.
 */

#ifndef OSCACHE_CHECK_INVARIANTS_HH
#define OSCACHE_CHECK_INVARIANTS_HH

#include <cstdint>
#include <vector>

#include "check/finding.hh"
#include "mem/config.hh"
#include "mem/flat_table.hh"
#include "mem/observer.hh"

namespace oscache
{

/**
 * Shadow-state coherence invariant checker.
 */
class CoherenceChecker : public MemEventObserver
{
  public:
    explicit CoherenceChecker(const MachineConfig &config);

    /** @name MemEventObserver interface @{ */
    void onL2Transition(CpuId cpu, Addr l2_line, LineState from,
                        LineState to) override;
    void onL1Fill(CpuId cpu, Addr l1_line) override;
    void onL1Drop(CpuId cpu, Addr l1_line) override;
    void onOperationEnd(const MemorySystem &mem, MemOpKind op, CpuId cpu,
                        Addr addr) override;
    /** @} */

    /**
     * Whole-machine audit: shadow-vs-actual cross-check plus global
     * SWMR and inclusion over every resident line.  Run at end of
     * simulation (and after fault injection in tests).
     */
    void auditFull(const MemorySystem &mem);

    const std::vector<CheckFinding> &findings() const { return found; }
    bool clean() const { return found.empty(); }

    /** Findings dropped after the reporting cap was hit. */
    std::uint64_t suppressedFindings() const { return suppressed; }

    /** Transitions observed (sanity signal that the hook is live). */
    std::uint64_t transitions() const { return transitionCount; }

    /**
     * Secondary lines written (entered Modified) by more than one
     * processor over the run, sorted — the protocol-level footprint
     * of write sharing, used to corroborate lockset race findings
     * (RaceCrossCheck).
     */
    std::vector<Addr> multiWriterLines() const;

  private:
    /** Line -> LineState (Invalid lines are absent). */
    using StateShadow = FlatTable<2>;
    /** Set of lines. */
    using LineSet = FlatTable<0>;
    /**
     * Line -> first writer's CpuId + 1, with multiWriterBit set once
     * a second processor writes the line.
     */
    using WriterTable = FlatTable<16>;
    static constexpr WriterTable::Word multiWriterBit = 0x8000;

    void report(CheckCode code, CpuId cpu, Addr addr, std::string message);
    /** SWMR + inclusion for one secondary line, against @p mem. */
    void checkLine(const MemorySystem &mem, Addr l2_line);

    MachineConfig cfg;
    /** Bit from * 4 + to set iff the protocol can take from -> to. */
    std::uint16_t legalEdges;
    /** Per-processor shadow of the secondary states. */
    std::vector<StateShadow> shadowL2;
    /** Per-processor shadow of primary residency. */
    std::vector<LineSet> shadowL1;
    /**
     * Secondary lines touched since the last operation boundary
     * (duplicates allowed; onOperationEnd sorts them out).
     */
    std::vector<Addr> touched;
    /** Writers of every line that ever entered Modified. */
    WriterTable writers;
    /** Last seen write-buffer completion horizons, per processor. */
    std::vector<Cycles> lastL1WbHorizon;
    std::vector<Cycles> lastL2WbHorizon;
    std::vector<CheckFinding> found;
    std::uint64_t transitionCount = 0;
    std::uint64_t suppressed = 0;
    /** Reporting cap: one defect tends to cascade; keep the first. */
    static constexpr std::size_t maxFindings = 64;
};

} // namespace oscache

#endif // OSCACHE_CHECK_INVARIANTS_HH

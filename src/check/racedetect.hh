/**
 * @file
 * Lockset-based race detector for shared kernel data.
 *
 * detectRaces() applies the Eraser discipline (Savage et al., SOSP
 * 1997) to a trace: every write to a shared kernel variable should be
 * protected by some lock that is held on *every* write to it.  For
 * each written address the detector intersects the set of locks the
 * writer held across all writes; an address written by two or more
 * processors whose intersection is empty has no consistent lock and
 * is flagged.
 *
 * Only the kernel's shared-mutable categories participate
 * (FreqShared, OtherShared, and stray plain writes to Lock words) —
 * the rest are private, bracketed by block operations, or
 * synchronization primitives with their own records.
 *
 * The paper's workloads deliberately include unlocked
 * producer-consumer traffic on FreqShared data (resource-table
 * pointers, cpievents mailboxes), so FreqShared findings are
 * Warnings; OtherShared and Lock findings are Errors.
 *
 * Findings can be cross-checked against the coherence checker: pass
 * CoherenceChecker::multiWriterLines() and the secondary line size,
 * and each finding notes whether the simulator actually observed the
 * line gaining multiple writers at the protocol level.
 */

#ifndef OSCACHE_CHECK_RACEDETECT_HH
#define OSCACHE_CHECK_RACEDETECT_HH

#include <vector>

#include "check/finding.hh"
#include "trace/trace.hh"

namespace oscache
{

/** Optional corroboration input for detectRaces(). */
struct RaceCrossCheck
{
    /**
     * Secondary lines that entered Modified on more than one
     * processor, sorted (CoherenceChecker::multiWriterLines()), or
     * nullptr.
     */
    const std::vector<Addr> *multiWriterLines = nullptr;
    /** Secondary line size used to map addresses onto that set. */
    Addr lineSize = 0;
};

/**
 * Run the lockset discipline over @p trace.  One finding per
 * offending address; an empty vector means every multi-writer shared
 * address had a consistent lock.
 */
std::vector<CheckFinding> detectRaces(const Trace &trace,
                                      const RaceCrossCheck &cross = {});

} // namespace oscache

#endif // OSCACHE_CHECK_RACEDETECT_HH

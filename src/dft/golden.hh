/**
 * @file
 * Golden-result regression harness.
 *
 * Snapshots the structured results of every registered experiment's
 * smoke cell (one small deterministic simulation per figure, table,
 * ablation, extension study, and NUMA suite — 24 cells in all) and
 * compares them against a blessed file under version control (tests/golden/cells.jsonl).  Any future
 * change that shifts a reproduced number fails the check with a
 * line-level diff and must consciously re-bless with
 * `oscache-dft golden --bless`.
 *
 * The rows are canonical (DriverOptions::canonicalResults): the
 * fields that vary run to run — wall-clock cost, peak RSS, the trace
 * mode, and whether the scheduler satisfied the cell from a shared
 * outcome — are written as zero/false/empty, so everything else (all
 * simulator statistics, printed at full precision) must match
 * exactly.  Rows are sorted, so the completion order of the
 * scheduler's worker threads does not matter.
 */

#ifndef OSCACHE_DFT_GOLDEN_HH
#define OSCACHE_DFT_GOLDEN_HH

#include <string>
#include <vector>

namespace oscache
{
namespace dft
{

/**
 * Run every registered experiment's smoke cell and return the
 * canonical, sorted result rows.  @p scratch_base is where the
 * results sink writes its working files (base + ".jsonl"/".csv",
 * overwritten); @p jobs sizes the scheduling pool.
 */
std::vector<std::string> collectGoldenLines(const std::string &scratch_base,
                                            unsigned jobs);

/** Comparison outcome with a human-readable first-difference dump. */
struct GoldenDiff
{
    bool matches = false;
    std::string report;
};

/** Compare @p current against @p blessed, reporting the differences. */
GoldenDiff compareGolden(const std::vector<std::string> &blessed,
                         const std::vector<std::string> &current);

/**
 * Read a golden file into sorted lines.  Returns false with the
 * reason in @p error when the file is missing or unreadable.
 */
bool readGoldenFile(const std::string &path,
                    std::vector<std::string> &lines, std::string *error);

/** Write @p lines to @p path (one per line); fatal on I/O failure. */
void writeGoldenFile(const std::string &path,
                     const std::vector<std::string> &lines);

} // namespace dft
} // namespace oscache

#endif // OSCACHE_DFT_GOLDEN_HH

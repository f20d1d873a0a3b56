#include "dft/golden.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "exp/driver.hh"

namespace oscache
{
namespace dft
{

std::vector<std::string>
collectGoldenLines(const std::string &scratch_base, unsigned jobs)
{
    DriverOptions options;
    options.jobs = jobs == 0 ? 1 : jobs;
    options.smoke = true;
    options.canonicalResults = true;
    options.resultsBase = scratch_base;
    runExperiments(resolveExperiments({"all"}), options);

    std::ifstream in(scratch_base + ".jsonl");
    if (!in)
        fatal("golden: cannot read back '", scratch_base, ".jsonl'");
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
}

GoldenDiff
compareGolden(const std::vector<std::string> &blessed,
              const std::vector<std::string> &current)
{
    GoldenDiff diff;
    if (blessed == current) {
        diff.matches = true;
        return diff;
    }

    // Both sides are sorted: a two-pointer sweep yields the missing
    // and unexpected rows directly.
    std::ostringstream os;
    os << "golden mismatch: blessed " << blessed.size()
       << " rows, current " << current.size() << " rows\n";
    std::size_t b = 0, c = 0;
    unsigned shown = 0;
    const unsigned limit = 6;
    const auto cellId = [](const std::string &row) {
        // Up through the "cell" field, for a short label.
        const std::size_t at = row.find("\"machine\"");
        return at == std::string::npos ? row : row.substr(0, at - 1);
    };
    while ((b < blessed.size() || c < current.size()) && shown < limit) {
        if (b < blessed.size() && c < current.size() &&
            blessed[b] == current[c]) {
            ++b;
            ++c;
            continue;
        }
        ++shown;
        if (c >= current.size() ||
            (b < blessed.size() && blessed[b] < current[c])) {
            os << "  only in blessed: " << cellId(blessed[b]) << "\n"
               << "    " << blessed[b] << "\n";
            ++b;
        } else {
            os << "  only in current: " << cellId(current[c]) << "\n"
               << "    " << current[c] << "\n";
            ++c;
        }
    }
    const std::size_t remaining =
        (blessed.size() - b) + (current.size() - c);
    if (remaining > 0)
        os << "  ... and up to " << remaining << " more differing rows\n";
    os << "If the change is intentional, re-bless with: oscache-dft "
          "golden --bless";
    diff.report = os.str();
    return diff;
}

bool
readGoldenFile(const std::string &path, std::vector<std::string> &lines,
               std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error != nullptr)
            *error = "cannot open golden file '" + path +
                     "' (run `oscache-dft golden --bless` to create it)";
        return false;
    }
    lines.clear();
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return true;
}

void
writeGoldenFile(const std::string &path,
                const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        fatal("golden: cannot write '", path, "'");
    for (const std::string &line : lines)
        out << line << '\n';
    if (!out)
        fatal("golden: write to '", path, "' failed");
}

} // namespace dft
} // namespace oscache

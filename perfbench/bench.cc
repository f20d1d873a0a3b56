#include "bench.hh"

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <ctime>
#include <fstream>
#include <sstream>

#include "exp/results.hh"

namespace oscache
{
namespace perfbench
{

namespace
{

/** Most failure messages one Verdict keeps. */
constexpr std::size_t maxNotes = 16;

double
timevalSeconds(const timeval &tv)
{
    return double(tv.tv_sec) + double(tv.tv_usec) * 1e-6;
}

} // namespace

double
CpuTimer::threadCpuSeconds()
{
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0.0;
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
processCpuSeconds()
{
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return timevalSeconds(usage.ru_utime) + timevalSeconds(usage.ru_stime);
}

void
resetPeakRss()
{
    malloc_trim(0);
    // "5" resets the peak resident set size (Linux >= 4.0).  Where it
    // is not writable the high-water mark covers the whole process.
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0.0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) != 0)
        return 0.0;
    return double(usage.ru_maxrss) / 1024.0;
}

std::string
digestHex(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[std::size_t(i)] = digits[h & 0xf];
        h >>= 4;
    }
    return out;
}

std::string
canonicalDigest(const std::string &experiment, const std::string &cell,
                const CellOutcome &outcome)
{
    ResultRow row;
    row.experiment = experiment;
    row.cell = cell;
    row.canonical = true;
    row.outcome = &outcome;
    return digestHex(resultRowJsonl(row));
}

std::uint64_t
simulatedAccesses(const SimStats &stats)
{
    return stats.totalReads() + stats.userWrites + stats.osWrites;
}

void
Verdict::record(const std::string &failure)
{
    std::lock_guard<std::mutex> lock(mutex);
    ++tried;
    if (failure.empty())
        return;
    ++bad;
    if (notes.size() < maxNotes)
        notes.push_back(failure);
}

bool
Expectations::load(const std::string &path, std::string *error)
{
    std::ifstream is(path);
    if (!is) {
        *error = "cannot open expected rows '" + path + "'";
        return false;
    }
    std::string line;
    unsigned lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, cell, digest, rest;
        if (!(fields >> workload >> cell >> digest) || (fields >> rest) ||
            digest.size() != 16) {
            *error = path + ":" + std::to_string(lineno) +
                ": expected '<workload> <experiment>:<cell> <digest>'";
            return false;
        }
        pinned[workload + " " + cell] = digest;
    }
    return true;
}

std::string
Expectations::check(const std::string &key, const std::string &digest)
{
    if (recording) {
        observed[key] = digest;
        return {};
    }
    const auto it = pinned.find(key);
    if (it == pinned.end())
        return key + ": no pinned row";
    if (it->second != digest)
        return key + ": canonical row digest " + digest +
            " differs from pinned " + it->second;
    return {};
}

bool
Expectations::save(const std::string &path) const
{
    std::ofstream os(path);
    os << "# Canonical result-row digests (FNV-1a 64 of the canonical\n"
          "# JSONL row) pinned for the benchmark's default seed.\n"
          "# <workload> <experiment>:<cell> <digest>\n";
    for (const auto &[key, digest] : observed)
        os << key << " " << digest << "\n";
    return bool(os);
}

Json
number(double value)
{
    if (!std::isfinite(value))
        return Json();
    return Json(value);
}

} // namespace perfbench
} // namespace oscache

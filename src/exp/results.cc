#include "exp/results.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iomanip>
#include <sstream>

#include "common/json.hh"
#include "common/log.hh"
#include "sample/stats.hh"

namespace oscache
{

namespace
{

std::string
formatDouble(double value)
{
    std::ostringstream os;
    os << std::setprecision(12) << value;
    return os.str();
}

} // namespace

const CellOutcome &
CellLookup::at(const std::string &id) const
{
    const auto it = cells.find(id);
    if (it == cells.end())
        panic("experiment render references unknown cell '", id, "'");
    return it->second;
}

const SimStats &
CellLookup::stats(const std::string &id) const
{
    return at(id).run.stats;
}

DurableLineFile::~DurableLineFile()
{
    if (fd >= 0)
        ::close(fd);
}

bool
DurableLineFile::open(const std::string &path)
{
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    return fd >= 0;
}

void
DurableLineFile::writeLine(const std::string &line)
{
    std::string buf = line;
    buf += '\n';
    const char *p = buf.data();
    std::size_t left = buf.size();
    while (left > 0) {
        const ssize_t n = ::write(fd, p, left);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            fatal("results sink: write failed: ", std::strerror(errno));
        }
        p += n;
        left -= static_cast<std::size_t>(n);
    }
    // Push the line to stable storage before reporting the cell done:
    // a crash can then lose at most the row being written.
    if (::fdatasync(fd) != 0 && errno != EINVAL && errno != ENOSYS)
        fatal("results sink: fdatasync failed: ", std::strerror(errno));
}

ResultsSink::ResultsSink(const std::string &basePath) : base(basePath)
{
    if (!jsonl.open(jsonlPath()) || !csv.open(csvPath()))
        fatal("results sink: cannot open '", base, ".jsonl/.csv'");
    csv.writeLine(
        "experiment,cell,workload,system,machine,wall_ms,shared,"
        "trace_mode,peak_rss_kb,"
        "os_time,user_time,idle,total_time,os_misses,os_miss_block,"
        "os_miss_coherence,os_miss_other,os_miss_hidden,user_misses,"
        "bus_bytes,bus_txns,"
        "sampled,sample_windows,sample_rel_err,sample_replayed_frac");
}

std::string
resultRowJsonl(const ResultRow &row)
{
    if (row.outcome == nullptr)
        panic("results sink: row without outcome");
    const SimStats &s = row.outcome->run.stats;
    const BusSnapshot &bus = row.outcome->run.bus;
    // Canonical rows zero the run-to-run fields so the line depends
    // only on the deterministic simulation outcome.
    const double wall_ms = row.canonical ? 0.0 : row.wallMs;
    const bool shared = !row.canonical && row.shared;
    const std::string trace_mode = row.canonical ? "" : row.traceMode;
    const long peak_rss_kb = row.canonical ? 0 : row.peakRssKb;

    std::ostringstream js;
    js << "{\"experiment\":\"" << jsonEscapeString(row.experiment) << "\""
       << ",\"cell\":\"" << jsonEscapeString(row.cell) << "\""
       << ",\"workload\":\"" << jsonEscapeString(row.workload) << "\""
       << ",\"system\":\"" << jsonEscapeString(row.system) << "\""
       << ",\"machine\":\"" << jsonEscapeString(row.machineHash) << "\""
       << ",\"wall_ms\":" << formatDouble(wall_ms)
       << ",\"shared\":" << (shared ? "true" : "false")
       << ",\"trace_mode\":\"" << jsonEscapeString(trace_mode) << "\""
       << ",\"peak_rss_kb\":" << peak_rss_kb
       << ",\"stats\":{"
       << "\"os_time\":" << s.osTime()
       << ",\"user_time\":" << s.userTime()
       << ",\"idle\":" << s.idle
       << ",\"total_time\":" << s.totalTime()
       << ",\"os_misses\":" << s.osMissTotal()
       << ",\"os_miss_block\":" << s.osMissBlock
       << ",\"os_miss_coherence\":" << s.osMissCoherenceTotal()
       << ",\"os_miss_other\":" << s.osMissOther
       << ",\"os_miss_hidden\":" << s.osMissPartiallyHidden
       << ",\"user_misses\":" << s.userMisses
       << ",\"os_read_stall\":" << s.osReadStall
       << ",\"os_write_stall\":" << s.osWriteStall
       << ",\"os_spin\":" << s.osSpin
       << ",\"bus_bytes\":" << bus.totalBytes
       << ",\"bus_txns\":" << bus.totalTransactions
       << ",\"hotspot_coverage\":"
       << formatDouble(row.outcome->run.hotspotCoverage) << "}";
    // Two-level interconnect figures; flat runs omit the key
    // entirely (golden-safe).
    if (bus.numSockets > 1) {
        js << ",\"numa\":{"
           << "\"sockets\":" << bus.numSockets
           << ",\"link_txns\":" << bus.linkTransactions
           << ",\"link_bytes\":" << bus.linkBytes
           << ",\"link_busy_cycles\":" << bus.linkBusyCycles
           << ",\"snoops_filtered\":" << bus.snoopsFiltered
           << ",\"snoops_forwarded\":" << bus.snoopsForwarded
           << ",\"local_home_reads\":" << bus.localHomeReads
           << ",\"remote_home_reads\":" << bus.remoteHomeReads << "}";
    }
    if (!row.outcome->extra.empty()) {
        js << ",\"extra\":{";
        bool first = true;
        for (const auto &[key, value] : row.outcome->extra) {
            js << (first ? "" : ",") << "\"" << jsonEscapeString(key)
               << "\":" << formatDouble(value);
            first = false;
        }
        js << "}";
    }
    // Per-cell observability: fold the metrics snapshot in when the
    // run carried one (oscache-bench --metrics).
    const std::shared_ptr<const ObsReport> &obs = row.outcome->run.obs;
    if (obs != nullptr && obs->options.metrics) {
        js << ",\"metrics\":{\"counters\":{";
        bool first = true;
        for (const CounterSnapshot &c : obs->metrics.counters) {
            js << (first ? "" : ",") << "\"" << jsonEscapeString(c.name)
               << "\":" << c.value;
            first = false;
        }
        js << "},\"histograms\":{";
        first = true;
        for (const HistogramSnapshot &h : obs->metrics.histograms) {
            js << (first ? "" : ",") << "\"" << jsonEscapeString(h.name)
               << "\":{\"count\":" << h.count << ",\"sum\":" << h.sum
               << ",\"p50\":" << formatDouble(h.percentile(50))
               << ",\"p90\":" << formatDouble(h.percentile(90))
               << ",\"p99\":" << formatDouble(h.percentile(99)) << "}";
            first = false;
        }
        js << "}}";
    }
    // Sampled cells carry their extrapolated totals and confidence
    // intervals; full runs omit the key entirely (golden-safe).
    const std::shared_ptr<const sample::SampleReport> &sample =
        row.outcome->run.sample;
    if (sample != nullptr) {
        js << ",\"sample\":{\"plan\":\""
           << jsonEscapeString(sample->plan.describe()) << "\""
           << ",\"windows\":" << sample->windows.size()
           << ",\"rounds\":" << sample->rounds
           << ",\"sync_breaks\":" << sample->syncBreaks
           << ",\"total_records\":" << sample->totalRecords
           << ",\"replayed_frac\":"
           << formatDouble(sample->replayedFraction())
           << ",\"max_rel_err\":" << formatDouble(sample->maxRelError())
           << ",\"estimates\":{";
        bool first = true;
        for (std::size_t m = 0; m < sample::numSampleMetrics; ++m) {
            const sample::MetricEstimate &est = sample->estimates[m];
            const double total = double(sample->totalRecords);
            js << (first ? "" : ",") << "\""
               << sample::toString(sample::SampleMetric(m))
               << "\":{\"total\":" << formatDouble(est.estimateTotal(total))
               << ",\"ci95\":" << formatDouble(est.totalHalfwidth(total))
               << ",\"rel\":" << formatDouble(est.relError()) << "}";
            first = false;
        }
        js << "}}";
    }
    js << "}";
    return js.str();
}

void
ResultsSink::record(const ResultRow &row)
{
    if (row.outcome == nullptr)
        panic("results sink: row without outcome");
    const SimStats &s = row.outcome->run.stats;
    const BusSnapshot &bus = row.outcome->run.bus;
    const std::shared_ptr<const sample::SampleReport> &sample =
        row.outcome->run.sample;
    const std::string js = resultRowJsonl(row);

    std::ostringstream cs;
    cs << row.experiment << ',' << row.cell << ',' << row.workload << ','
       << row.system << ',' << row.machineHash << ','
       << formatDouble(row.canonical ? 0.0 : row.wallMs) << ','
       << (!row.canonical && row.shared ? 1 : 0) << ','
       << (row.canonical ? "" : row.traceMode) << ','
       << (row.canonical ? 0 : row.peakRssKb) << ','
       << s.osTime() << ',' << s.userTime() << ',' << s.idle << ','
       << s.totalTime() << ',' << s.osMissTotal() << ','
       << s.osMissBlock << ',' << s.osMissCoherenceTotal() << ','
       << s.osMissOther << ',' << s.osMissPartiallyHidden << ','
       << s.userMisses << ',' << bus.totalBytes << ','
       << bus.totalTransactions << ','
       << (sample != nullptr ? 1 : 0) << ','
       << (sample != nullptr ? sample->windows.size() : 0) << ','
       << formatDouble(sample != nullptr ? sample->maxRelError() : 0.0)
       << ','
       << formatDouble(sample != nullptr ? sample->replayedFraction()
                                         : 1.0);

    std::lock_guard<std::mutex> lock(mutex);
    jsonl.writeLine(js);
    csv.writeLine(cs.str());
}

} // namespace oscache

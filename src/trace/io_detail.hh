/**
 * @file
 * Internal building blocks shared by the trace serializers (io.cc)
 * and the streaming file reader (source.cc): the binary magic and
 * per-record wire layout (encodeRecord/decodeRecord), the one
 * binary-format parser, the checksummed stream wrappers, and the
 * text-format record parser.
 *
 * This header is private to src/trace; nothing outside the library
 * should include it.  The public contract is io.hh and source.hh.
 */

#ifndef OSCACHE_TRACE_IO_DETAIL_HH
#define OSCACHE_TRACE_IO_DETAIL_HH

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "common/binio.hh"
#include "trace/blockop.hh"
#include "trace/record.hh"
#include "trace/trace.hh"

namespace oscache
{
namespace iodetail
{

/** Leading bytes of a binary trace file. */
inline constexpr char binaryMagic[4] = {'O', 'S', 'T', 'R'};

/** Bytes of one packed TraceRecord on the wire. */
inline constexpr std::size_t recordWireBytes = 8 + 4 + 4 + 1 + 1 + 1 + 1;

/** Chunk header sentinel terminating the chunk sequence. */
inline constexpr std::uint32_t chunkEndMarker = 0xffffffffu;

// The checksummed stream primitives grew a second client (the
// live-points checkpoint store) and moved to common/binio.hh; these
// aliases keep the trace serializers' spelling unchanged.
using binio::BinaryReader;
using binio::BinaryWriter;
using binio::ChecksumStream;

// encodeRecord() and decodeRecord() are the one statement of the
// packed layout: addr, aux, bb, then the type, category, size and
// flags bytes, native-endian with no padding.
static_assert(sizeof(TraceRecord::addr) + sizeof(TraceRecord::aux) +
                      sizeof(TraceRecord::bb) + sizeof(TraceRecord::type) +
                      sizeof(TraceRecord::category) +
                      sizeof(TraceRecord::size) +
                      sizeof(TraceRecord::flags) ==
                  recordWireBytes,
              "the wire layout covers every TraceRecord field once");

/** Encode @p rec into the recordWireBytes bytes at @p p. */
inline void
encodeRecord(char *p, const TraceRecord &rec)
{
    std::memcpy(p, &rec.addr, sizeof(rec.addr));
    p += sizeof(rec.addr);
    std::memcpy(p, &rec.aux, sizeof(rec.aux));
    p += sizeof(rec.aux);
    std::memcpy(p, &rec.bb, sizeof(rec.bb));
    p += sizeof(rec.bb);
    p[0] = char(std::uint8_t(rec.type));
    p[1] = char(std::uint8_t(rec.category));
    p[2] = char(rec.size);
    p[3] = char(rec.flags);
}

/**
 * Decode one packed wire record.  The type and category bytes are
 * taken as they are; recordDefect() says whether they are valid.
 */
inline TraceRecord
decodeRecord(const char *p)
{
    TraceRecord rec;
    std::memcpy(&rec.addr, p, sizeof(rec.addr));
    p += sizeof(rec.addr);
    std::memcpy(&rec.aux, p, sizeof(rec.aux));
    p += sizeof(rec.aux);
    std::memcpy(&rec.bb, p, sizeof(rec.bb));
    p += sizeof(rec.bb);
    rec.type = RecordType(std::uint8_t(p[0]));
    rec.category = DataCategory(std::uint8_t(p[1]));
    rec.size = std::uint8_t(p[2]);
    rec.flags = std::uint8_t(p[3]);
    return rec;
}

/** Why a decoded record's type or category is invalid, or nullptr. */
inline const char *
recordDefect(const TraceRecord &rec)
{
    if (std::uint8_t(rec.type) > std::uint8_t(RecordType::BarrierArrive))
        return "bad record type";
    if (std::uint8_t(rec.category) >=
        std::uint8_t(DataCategory::NumCategories))
        return "bad data category";
    return nullptr;
}

/** One non-empty record chunk of a binary trace file. */
struct ChunkExtent
{
    CpuId cpu = 0;
    std::uint32_t records = 0;
    std::uint64_t offset = 0; ///< Absolute offset of the first record.
};

/** Everything parseChunked() learns about a file besides its records. */
struct ChunkedLayout
{
    unsigned cpus = 0;
    std::unordered_set<Addr> updatePages;
    BlockOpTable blockOps;
    std::vector<ChunkExtent> chunks;     ///< In file order.
    std::vector<std::size_t> cpuRecords; ///< Record total per cpu.
};

/**
 * The one parser of the binary (chunked v3) layout: magic, version,
 * cpu count, update pages, the record chunks up to the end marker,
 * the block-op table, the trailing checksum, and nothing after it.
 *
 * With @p read_records false the walk seeks over every record
 * payload: chunk sizes are bounded by the file size, records are
 * not validated, and the checksum must be present but is not
 * verified.  With it true every record is read once, validated, and
 * (when @p decoded is non-null) appended to @p decoded's stream of
 * its cpu; the checksum must match.  @p is must be seekable.
 *
 * Returns false with the reason in @p error (when non-null) on
 * malformed input.
 */
bool parseChunked(std::istream &is, bool read_records, ChunkedLayout &out,
                  Trace *decoded, std::string *error);

/** Text-format category code ("user", "kpriv", ...). */
const char *categoryCode(DataCategory cat);

/** Inverse of categoryCode(); false on an unknown code. */
bool tryParseCategory(const std::string &code, DataCategory &out);

/** As tryParseCategory(), but fatal() on an unknown code. */
DataCategory parseCategory(const std::string &code);

/** Append @p rec to @p os as one text-format record line. */
void putRecordText(std::ostream &os, const TraceRecord &rec);

/**
 * Parse one text-format record line ('x', 'i', 'r', 'w', 'p', 'B',
 * 'E', 'L', 'U', 'A') into @p rec.  On failure returns false with
 * the reason in @p why — the streaming validator turns that into a
 * clean tryOpen() error rather than an exit.
 */
bool tryParseRecordLine(const std::string &line, TraceRecord &rec,
                        const char **why);

/** As tryParseRecordLine(), but fatal() naming the offending line. */
TraceRecord parseRecordLine(const std::string &line);

} // namespace iodetail
} // namespace oscache

#endif // OSCACHE_TRACE_IO_DETAIL_HH

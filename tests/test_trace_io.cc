/**
 * @file
 * Tests for trace serialization: round trips, format details, and
 * rejection of malformed input.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <streambuf>

#include "common/binio.hh"
#include "synth/generator.hh"
#include "trace/io.hh"
#include "trace/source.hh"

namespace oscache
{
namespace
{

Trace
sampleTrace()
{
    Trace trace(2);
    trace.updatePages().insert(0x8000'0000);

    BlockOp op;
    op.src = 0x1000;
    op.dst = 0x2000;
    op.size = 4096;
    op.kind = BlockOpKind::Copy;
    op.readOnlyAfter = true;
    const BlockOpId id = trace.blockOps().add(op);
    BlockOp zero;
    zero.dst = 0x3000;
    zero.size = 512;
    zero.kind = BlockOpKind::Zero;
    trace.blockOps().add(zero);

    auto &s0 = trace.stream(0);
    s0.push_back(TraceRecord::exec(100, 7, true));
    s0.push_back(TraceRecord::read(0xdeadbeef, DataCategory::PageTable, 7,
                                   true));
    s0.push_back(TraceRecord::write(0x1234, DataCategory::User, 8, false,
                                    8));
    s0.push_back(
        TraceRecord::prefetch(0x4000, DataCategory::KernelOther, 9, true));
    TraceRecord begin;
    begin.type = RecordType::BlockOpBegin;
    begin.aux = id;
    begin.flags = flagOs;
    s0.push_back(begin);
    TraceRecord end = begin;
    end.type = RecordType::BlockOpEnd;
    s0.push_back(end);

    auto &s1 = trace.stream(1);
    s1.push_back(TraceRecord::idle(900));
    TraceRecord lock;
    lock.type = RecordType::LockAcquire;
    lock.addr = 0x5000;
    lock.category = DataCategory::Lock;
    lock.flags = flagOs;
    s1.push_back(lock);
    TraceRecord unlock = lock;
    unlock.type = RecordType::LockRelease;
    s1.push_back(unlock);
    TraceRecord arrive;
    arrive.type = RecordType::BarrierArrive;
    arrive.addr = 0x6000;
    arrive.aux = 2;
    arrive.category = DataCategory::Barrier;
    arrive.flags = flagOs;
    s1.push_back(arrive);
    return trace;
}

void
expectTracesEqual(const Trace &a, const Trace &b)
{
    ASSERT_EQ(a.numCpus(), b.numCpus());
    EXPECT_EQ(a.updatePages(), b.updatePages());
    ASSERT_EQ(a.blockOps().size(), b.blockOps().size());
    for (std::size_t i = 0; i < a.blockOps().size(); ++i) {
        const BlockOp &x = a.blockOps().get(BlockOpId(i));
        const BlockOp &y = b.blockOps().get(BlockOpId(i));
        EXPECT_EQ(x.src, y.src);
        EXPECT_EQ(x.dst, y.dst);
        EXPECT_EQ(x.size, y.size);
        EXPECT_EQ(x.kind, y.kind);
        EXPECT_EQ(x.readOnlyAfter, y.readOnlyAfter);
    }
    for (CpuId c = 0; c < a.numCpus(); ++c) {
        const auto &sa = a.stream(c);
        const auto &sb = b.stream(c);
        ASSERT_EQ(sa.size(), sb.size()) << "cpu " << int(c);
        for (std::size_t i = 0; i < sa.size(); ++i) {
            EXPECT_EQ(sa[i].type, sb[i].type) << i;
            EXPECT_EQ(sa[i].addr, sb[i].addr) << i;
            EXPECT_EQ(sa[i].aux, sb[i].aux) << i;
            EXPECT_EQ(sa[i].bb, sb[i].bb) << i;
            EXPECT_EQ(sa[i].category, sb[i].category) << i;
            EXPECT_EQ(sa[i].isOs(), sb[i].isOs()) << i;
        }
    }
}

TEST(TraceIoTest, RoundTripsSampleTrace)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    writeTrace(buffer, original);
    const Trace restored = readTrace(buffer);
    expectTracesEqual(original, restored);
}

TEST(TraceIoTest, RoundTripsSyntheticWorkload)
{
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Shell);
    p.quanta = 2;
    const Trace original =
        generateTrace(p, CoherenceOptions::relocUpdate());
    std::stringstream buffer;
    writeTrace(buffer, original);
    const Trace restored = readTrace(buffer);
    expectTracesEqual(original, restored);
}

TEST(TraceIoTest, HeaderPresent)
{
    std::stringstream buffer;
    writeTrace(buffer, Trace(1));
    std::string first;
    std::getline(buffer, first);
    EXPECT_EQ(first, "oscache-trace 1");
}

TEST(TraceIoTest, CommentsAndBlankLinesIgnored)
{
    std::stringstream in(
        "oscache-trace 1\n"
        "cpus 1\n"
        "# a comment\n"
        "\n"
        "stream 0\n"
        "x 10 5 1\n");
    const Trace t = readTrace(in);
    ASSERT_EQ(t.stream(0).size(), 1u);
    EXPECT_EQ(t.stream(0)[0].aux, 10u);
}

TEST(TraceIoTest, RejectsBadHeader)
{
    std::stringstream in("not-a-trace\n");
    EXPECT_DEATH(readTrace(in), "header");
}

TEST(TraceIoTest, RejectsUnknownDirective)
{
    std::stringstream in("oscache-trace 1\ncpus 1\nstream 0\nz 1 2 3\n");
    EXPECT_DEATH(readTrace(in), "unknown directive");
}

TEST(TraceIoTest, RejectsRecordBeforeStream)
{
    std::stringstream in("oscache-trace 1\ncpus 1\nx 1 2 1\n");
    EXPECT_DEATH(readTrace(in), "before any stream");
}

TEST(TraceIoTest, RejectsDanglingBlockOpReference)
{
    std::stringstream in("oscache-trace 1\ncpus 1\nstream 0\nB 3\n");
    EXPECT_DEATH(readTrace(in), "unknown block op");
}

TEST(TraceIoTest, RejectsBadCategory)
{
    std::stringstream in(
        "oscache-trace 1\ncpus 1\nstream 0\nr ff wat 1 1 4\n");
    EXPECT_DEATH(readTrace(in), "unknown data category");
}

TEST(TraceIoTest, FileRoundTrip)
{
    const Trace original = sampleTrace();
    const std::string path = "/tmp/oscache_trace_io_test.trace";
    writeTraceFile(path, original);
    const Trace restored = readTraceFile(path);
    expectTracesEqual(original, restored);
}

// ------------------------------------------------- binary format (v3)

TEST(TraceIoBinaryTest, RoundTripsSampleTrace)
{
    const Trace original = sampleTrace();
    std::stringstream buffer;
    writeTraceChunked(buffer, original, 3);
    const Trace restored = readTraceBinary(buffer);
    expectTracesEqual(original, restored);
}

TEST(TraceIoBinaryTest, RoundTripsSyntheticWorkload)
{
    WorkloadProfile p = WorkloadProfile::forKind(WorkloadKind::Shell);
    p.quanta = 2;
    const Trace original =
        generateTrace(p, CoherenceOptions::relocUpdate());
    std::stringstream buffer;
    writeTraceChunked(buffer, original, 3);
    const Trace restored = readTraceBinary(buffer);
    expectTracesEqual(original, restored);
}

TEST(TraceIoBinaryTest, MatchesTextSemantics)
{
    const Trace original = sampleTrace();
    std::stringstream text, binary;
    writeTrace(text, original);
    writeTraceChunked(binary, original, 3);
    expectTracesEqual(readTrace(text), readTraceBinary(binary));
}

TEST(TraceIoBinaryTest, StartsWithMagicAndVersion)
{
    std::stringstream buffer;
    writeTraceChunked(buffer, Trace(1));
    const std::string bytes = buffer.str();
    ASSERT_GE(bytes.size(), 8u);
    EXPECT_EQ(bytes.substr(0, 4), "OSTR");
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, sizeof(version));
    EXPECT_EQ(version, traceBinaryVersion);
    EXPECT_EQ(version, 3u);
}

TEST(TraceIoBinaryTest, TryReadRejectsBadMagic)
{
    std::stringstream in("NOPE....garbage");
    Trace trace(1);
    std::string why;
    EXPECT_FALSE(tryReadTraceBinary(in, trace, &why));
    EXPECT_NE(why.find("magic"), std::string::npos);
}

TEST(TraceIoBinaryTest, TryReadRejectsTruncation)
{
    std::stringstream buffer;
    writeTraceChunked(buffer, sampleTrace(), 3);
    const std::string bytes = buffer.str();
    std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
    Trace trace(1);
    std::string why;
    EXPECT_FALSE(tryReadTraceBinary(truncated, trace, &why));
}

TEST(TraceIoBinaryTest, TryReadRejectsBitFlip)
{
    std::stringstream buffer;
    writeTraceChunked(buffer, sampleTrace(), 3);
    std::string bytes = buffer.str();
    // Flip a payload byte past the header; the checksum must notice.
    bytes[bytes.size() / 2] ^= 0x40;
    std::stringstream corrupt(bytes);
    Trace trace(1);
    std::string why;
    EXPECT_FALSE(tryReadTraceBinary(corrupt, trace, &why));
}

TEST(TraceIoBinaryTest, TryReadRejectsTrailingGarbage)
{
    std::stringstream buffer;
    writeTraceChunked(buffer, sampleTrace(), 3);
    std::string bytes = buffer.str() + "x";
    std::stringstream in(bytes);
    Trace trace(1);
    EXPECT_FALSE(tryReadTraceBinary(in, trace, nullptr));
}

TEST(TraceIoBinaryTest, DeterministicBytes)
{
    // The same trace must serialize to the same bytes (the artifact
    // cache hashes rely on it), including the unordered update pages.
    Trace trace = sampleTrace();
    trace.updatePages().insert(0x1000);
    trace.updatePages().insert(0x7000);
    std::stringstream a, b;
    writeTraceChunked(a, trace, 3);
    writeTraceChunked(b, trace, 3);
    EXPECT_EQ(a.str(), b.str());
}

TEST(TraceIoBinaryTest, FileRoundTripAutodetects)
{
    const Trace original = sampleTrace();
    const std::string bin_path = "/tmp/oscache_trace_io_test.otb";
    const std::string txt_path = "/tmp/oscache_trace_io_test2.trace";
    writeTraceFile(bin_path, original, TraceFormat::Chunked);
    writeTraceFile(txt_path, original, TraceFormat::Text);
    expectTracesEqual(readTraceFile(bin_path), readTraceFile(txt_path));
}

// ----------------------------------------------------- error paths

std::string
chunkedBytes(const Trace &trace)
{
    std::stringstream buffer;
    writeTraceChunked(buffer, trace, 3);
    return buffer.str();
}

std::string
writeCorruptFile(const std::string &name, const std::string &bytes)
{
    const std::string path = "/tmp/oscache_trace_io_" + name;
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), std::streamsize(bytes.size()));
    return path;
}

TEST(TraceIoErrorTest, RejectsCorruptV3VersionWord)
{
    std::string bytes = chunkedBytes(sampleTrace());
    bytes[4] = char(0x7f);
    const std::string path = writeCorruptFile("v3_badver.otb", bytes);
    std::string why;
    EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
    EXPECT_NE(why.find("version"), std::string::npos) << why;
}

TEST(TraceIoErrorTest, RejectsBadChecksumV3)
{
    std::string bytes = chunkedBytes(sampleTrace());
    bytes[bytes.size() - 1] ^= 0x01;
    const std::string path = writeCorruptFile("v3_badsum.otb", bytes);
    std::string why;
    EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
    EXPECT_NE(why.find("checksum"), std::string::npos) << why;
}

TEST(TraceIoErrorTest, RejectsChunkTruncatedMidRecord)
{
    const std::string bytes = chunkedBytes(sampleTrace());
    // Cut inside the first chunk's record payload: magic(4) +
    // version(4) + cpus(4) + page count(8) + one page(8) + chunk
    // header(8), then 9 bytes into the first packed record.
    const std::size_t cut = (4 + 4 + 4) + (8 + 8) + (4 + 4) + 9;
    ASSERT_LT(cut, bytes.size());
    const std::string path =
        writeCorruptFile("v3_midrec.otb", bytes.substr(0, cut));
    std::string why;
    EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
    EXPECT_FALSE(why.empty());

    std::stringstream in(bytes.substr(0, cut));
    Trace trace(1);
    EXPECT_FALSE(tryReadTraceBinary(in, trace, nullptr));
}

/** @p bytes with the @p value's byte image written at @p offset. */
template <typename T>
std::string
patched(std::string bytes, std::size_t offset, T value)
{
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
}

TEST(TraceIoErrorTest, EveryRejectionFiresInBothReaders)
{
    // sampleTrace() in 3-record chunks: magic(4) version(4) cpus(4)
    // page count(8) page(8), then the first chunk header [cpu][count]
    // at 28 and its first record at 36 (type byte at +16, category
    // at +17).
    const std::string good = chunkedBytes(sampleTrace());
    constexpr std::size_t chunk = 28;
    constexpr std::size_t record = chunk + 8;

    Trace dangling(1);
    TraceRecord begin;
    begin.type = RecordType::BlockOpBegin;
    begin.aux = 7;
    dangling.stream(0).push_back(begin);

    const struct
    {
        const char *name;
        std::string bytes;
        const char *why;
        bool index; ///< An index scan, which skips payloads, sees it.
    } cases[] = {
        {"version", patched(good, 4, std::uint32_t(2)),
         "unsupported version", true},
        {"cpus", patched(good, 8, std::uint32_t(0)), "bad cpu count", true},
        {"pages", patched(good, 12, ~std::uint64_t(0)),
         "bad update-page count", true},
        {"chunk cpu", patched(good, chunk, std::uint32_t(5)),
         "bad chunk header", true},
        {"cut header", good.substr(0, chunk + 2), "truncated chunk header",
         true},
        {"cut record", good.substr(0, record + 9),
         "truncated record stream", true},
        {"type", patched(good, record + 16, std::uint8_t(0xff)),
         "bad record type", false},
        {"category", patched(good, record + 17, std::uint8_t(0xff)),
         "bad data category", false},
        {"block op", chunkedBytes(dangling),
         "record references unknown block op", false},
        {"checksum",
         patched(good, good.size() - 1, std::uint8_t(good.back() ^ 1)),
         "checksum mismatch", false},
        {"no checksum", good.substr(0, good.size() - 8), "missing checksum",
         true},
        {"garbage", good + "x", "trailing garbage", true},
    };
    for (const auto &c : cases) {
        std::stringstream in(c.bytes);
        Trace trace(1);
        std::string why;
        EXPECT_FALSE(tryReadTraceBinary(in, trace, &why)) << c.name;
        EXPECT_EQ(why, c.why) << c.name;

        const std::string path = writeCorruptFile("reason.otb", c.bytes);
        why.clear();
        EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr)
            << c.name;
        EXPECT_EQ(why, c.why) << c.name;

        why.clear();
        const auto indexed = FileTraceSource::tryOpen(
            path, 16, &why, FileTraceSource::ScanDepth::Index);
        if (c.index) {
            EXPECT_EQ(indexed, nullptr) << c.name;
            EXPECT_EQ(why, c.why) << c.name;
        } else {
            EXPECT_NE(indexed, nullptr) << c.name << ": " << why;
        }
    }

    std::stringstream in("NOPE" + good.substr(4));
    Trace trace(1);
    std::string why;
    EXPECT_FALSE(tryReadTraceBinary(in, trace, &why));
    EXPECT_EQ(why, "bad magic");
}

TEST(TraceIoErrorTest, RejectsZeroLengthFile)
{
    const std::string path = writeCorruptFile("empty.otb", "");
    std::string why;
    EXPECT_EQ(FileTraceSource::tryOpen(path, 16, &why), nullptr);
    EXPECT_FALSE(why.empty());

    std::stringstream in("");
    Trace trace(1);
    std::string why2;
    EXPECT_FALSE(tryReadTraceBinary(in, trace, &why2));
    EXPECT_FALSE(why2.empty());
}

// ------------------------------------------------- writer byte pins

/**
 * Record @p i of the pinned writer trace: every field at or near its
 * extreme, with addr and size varying so a misplaced record shows.
 */
TraceRecord
extremeRecord(std::size_t i)
{
    TraceRecord rec;
    rec.addr = 0xfedc'ba98'0000'0000ull | std::uint64_t(i);
    rec.aux = std::numeric_limits<std::uint32_t>::max();
    rec.bb = std::numeric_limits<std::uint32_t>::max();
    rec.type = RecordType::BarrierArrive;
    rec.category = DataCategory(std::uint8_t(DataCategory::NumCategories) -
                                1);
    rec.size = std::uint8_t(i * 7);
    rec.flags = 0xff;
    return rec;
}

/**
 * Chunk sizes around the writer's 64 KiB staging block: 3276 records
 * and the 8-byte chunk header fit in one block, the 3277th straddles
 * its edge, and 65536/65537 span 21 blocks with records straddling
 * each edge.  The empty chunk writes nothing.
 */
constexpr std::size_t pinnedChunkSizes[] = {0, 1, 3276, 3277, 65536, 65537};

/** The pinned 3-cpu trace: chunk k holds pinnedChunkSizes[k] records
 *  of cpu k % 3. */
Trace
pinnedWriterTrace()
{
    Trace trace(3);
    std::size_t next = 0;
    for (std::size_t k = 0; k < std::size(pinnedChunkSizes); ++k)
        for (std::size_t i = 0; i < pinnedChunkSizes[k]; ++i)
            trace.stream(CpuId(k % 3)).push_back(extremeRecord(next++));
    return trace;
}

/** Write pinnedWriterTrace() chunk by chunk through @p os. */
void
writePinnedChunks(std::ostream &os, const Trace &trace)
{
    ChunkedTraceWriter writer(os, trace.numCpus(), trace.updatePages());
    std::size_t offset[3] = {};
    for (std::size_t k = 0; k < std::size(pinnedChunkSizes); ++k) {
        const CpuId cpu = CpuId(k % 3);
        writer.writeChunk(cpu, trace.stream(cpu).data() + offset[cpu],
                          pinnedChunkSizes[k]);
        offset[cpu] += pinnedChunkSizes[k];
    }
    writer.finish(trace.blockOps());
}

/**
 * Reference encoding of the same file with one BinaryWriter::put()
 * per header word and per record field: the layout as the format
 * defines it, independent of how the writer batches its bytes.
 */
std::string
referenceChunkedBytes(const Trace &trace)
{
    std::stringstream os;
    os.write("OSTR", 4);
    binio::BinaryWriter w(os);
    w.put(std::uint32_t(3)); // version
    w.put(std::uint32_t(trace.numCpus()));
    w.put(std::uint64_t(0)); // update pages
    std::size_t offset[3] = {};
    for (std::size_t k = 0; k < std::size(pinnedChunkSizes); ++k) {
        const CpuId cpu = CpuId(k % 3);
        const std::size_t n = pinnedChunkSizes[k];
        if (n == 0)
            continue;
        w.put(std::uint32_t(cpu));
        w.put(std::uint32_t(n));
        for (std::size_t i = 0; i < n; ++i) {
            const TraceRecord &rec = trace.stream(cpu)[offset[cpu] + i];
            w.put(rec.addr);
            w.put(rec.aux);
            w.put(rec.bb);
            w.put(std::uint8_t(rec.type));
            w.put(std::uint8_t(rec.category));
            w.put(rec.size);
            w.put(rec.flags);
        }
        offset[cpu] += n;
    }
    w.put(std::uint32_t(0xffffffffu)); // end marker
    w.put(std::uint64_t(0));           // block ops
    const std::uint64_t sum = w.checksum();
    os.write(reinterpret_cast<const char *>(&sum), sizeof(sum));
    return os.str();
}

TEST(TraceIoWriterTest, BlockEncodingMatchesPerFieldReference)
{
    const Trace trace = pinnedWriterTrace();
    std::stringstream out;
    writePinnedChunks(out, trace);
    const std::string bytes = out.str();

    EXPECT_TRUE(bytes == referenceChunkedBytes(trace));
    binio::ChecksumStream fnv;
    fnv.mix(bytes.data(), bytes.size());
    // FNV-1a of these exact bytes as the per-field writer produced them.
    EXPECT_EQ(fnv.value(), 0x2582'4870'0971'de19ull)
        << std::hex << fnv.value();

    std::stringstream in(bytes);
    Trace parsed(1);
    std::string why;
    ASSERT_TRUE(tryReadTraceBinary(in, parsed, &why)) << why;
    ASSERT_EQ(parsed.numCpus(), 3u);
    for (CpuId cpu = 0; cpu < 3; ++cpu)
        EXPECT_TRUE(parsed.stream(cpu) == trace.stream(cpu)) << int(cpu);

    const std::string path = writeCorruptFile("pinned_writer.otb", bytes);
    const auto source = FileTraceSource::tryOpen(path, 4096, &why);
    ASSERT_NE(source, nullptr) << why;
    for (CpuId cpu = 0; cpu < 3; ++cpu) {
        auto cursor = source->cursor(cpu);
        std::size_t i = 0;
        for (; cursor->peek() != nullptr; cursor->advance(), ++i) {
            ASSERT_LT(i, trace.stream(cpu).size()) << int(cpu);
            ASSERT_TRUE(*cursor->peek() == trace.stream(cpu)[i])
                << int(cpu) << " record " << i;
        }
        EXPECT_EQ(i, trace.stream(cpu).size()) << int(cpu);
    }
}

/** A streambuf that discards its bytes and counts the writes. */
class CountingBuf : public std::streambuf
{
  public:
    std::size_t writes = 0;
    std::size_t bytes = 0;

  protected:
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        ++writes;
        bytes += std::size_t(n);
        return n;
    }

    int_type
    overflow(int_type ch) override
    {
        ++writes;
        ++bytes;
        return traits_type::not_eof(ch);
    }
};

TEST(TraceIoWriterTest, ChunkIsOneStreamWritePerBlock)
{
    // Pins the structure, not a time: a chunk of N records reaches the
    // stream in at most ceil(20 N / 64 KiB) + 1 writes (the +1 covers
    // the chunk header), where a write per field would make 7 N.
    constexpr std::size_t block = 64 * 1024;
    const Trace trace = pinnedWriterTrace();
    std::size_t offset[3] = {};
    for (std::size_t k = 0; k < std::size(pinnedChunkSizes); ++k) {
        const CpuId cpu = CpuId(k % 3);
        const std::size_t n = pinnedChunkSizes[k];
        CountingBuf buf;
        std::ostream os(&buf);
        ChunkedTraceWriter writer(os, 3, {});
        const std::size_t before = buf.writes;
        const std::size_t before_bytes = buf.bytes;
        writer.writeChunk(cpu, trace.stream(cpu).data() + offset[cpu], n);
        offset[cpu] += n;
        EXPECT_LE(buf.writes - before, (20 * n + block - 1) / block + 1)
            << n << " records";
        EXPECT_EQ(buf.bytes - before_bytes, n == 0 ? 0 : 8 + 20 * n)
            << n << " records";
        writer.finish({});
    }
}

} // namespace
} // namespace oscache

/** @file Persistent trace arena: publish→tryLoad round-trips are
 *  bit-identical, a streamed publish writes exactly the bytes of a
 *  whole-file serialization, validation leaves at most one chunk of
 *  a loaded file resident, corrupted/truncated/foreign files are
 *  rejected and
 *  transparently regenerated, concurrent writers leave one valid
 *  file, mapped traces borrow their columns and image pages from
 *  the mapping, and warm engine runs (thread-pool and forked shards alike)
 *  reproduce cold results byte-for-byte with zero src=gen events. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/process_shard_backend.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/task_plan.hh"
#include "trace/spec_suite.hh"
#include "trace/trace_arena.hh"
#include "trace/trace_cache.hh"

#include "spec_helpers.hh"

using namespace microlib;

namespace
{

const std::vector<std::string> mechs = {"Base", "TP", "GHB"};
const std::vector<std::string> benchs = {"pchase", "swim"};

/** Arbitrary-window config: no SimPoint profiling, so tests are fast
 *  and the window is MICROLIB_QUICK-independent. */
RunConfig
arbConfig(std::uint64_t skip = 1'000, std::uint64_t length = 50'000)
{
    RunConfig cfg;
    cfg.selection = TraceSelection::Arbitrary;
    cfg.scale.arbitrary_skip = skip;
    cfg.scale.arbitrary_length = length;
    return cfg;
}

/** mechs x benchs on arbConfig()'s default window. */
SweepSpec
arbSpec()
{
    return specOf(mechs, benchs,
                  {{"window.selection", "arbitrary"},
                   {"window.skip", "1000"},
                   {"window.length", "50000"}});
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "microlib_arena_" + name;
}

/** A fresh (removed + recreated-on-use) arena directory. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = tmpPath(name);
    std::filesystem::remove_all(dir);
    return dir;
}

MaterializedTrace
makeTrace(const std::string &benchmark = "pchase",
          std::uint64_t skip = 1'000, std::uint64_t length = 20'000)
{
    return materialize(specProgram(benchmark),
                       TraceWindow{skip, length});
}

/** Bit-identity over everything the hot path consumes. */
void
expectSameTrace(const MaterializedTrace &a, const MaterializedTrace &b)
{
    ASSERT_EQ(a.benchmark, b.benchmark);
    ASSERT_EQ(a.window.skip, b.window.skip);
    ASSERT_EQ(a.window.length, b.window.length);
    const TraceView va = a.view(), vb = b.view();
    ASSERT_EQ(va.n, vb.n);
    EXPECT_EQ(0, std::memcmp(va.pc, vb.pc, va.n * sizeof(*va.pc)));
    EXPECT_EQ(0,
              std::memcmp(va.addr, vb.addr, va.n * sizeof(*va.addr)));
    EXPECT_EQ(
        0, std::memcmp(va.value, vb.value, va.n * sizeof(*va.value)));
    EXPECT_EQ(0, std::memcmp(va.op, vb.op, va.n * sizeof(*va.op)));
    EXPECT_EQ(0, std::memcmp(va.dep1, vb.dep1, va.n));
    EXPECT_EQ(0, std::memcmp(va.dep2, vb.dep2, va.n));

    // Images: identical page sets with identical words and masks.
    ASSERT_TRUE(a.image && b.image);
    ASSERT_EQ(a.image->allocatedPages(), b.image->allocatedPages());
    std::vector<Addr> pages_a, pages_b;
    std::vector<const Word *> words_b;
    std::vector<const std::uint64_t *> masks_b;
    b.image->forEachPage([&](Addr idx, const Word *w,
                             const std::uint64_t *m) {
        pages_b.push_back(idx);
        words_b.push_back(w);
        masks_b.push_back(m);
    });
    std::size_t i = 0;
    a.image->forEachPage([&](Addr idx, const Word *w,
                             const std::uint64_t *m) {
        ASSERT_LT(i, pages_b.size());
        EXPECT_EQ(idx, pages_b[i]);
        EXPECT_EQ(0, std::memcmp(w, words_b[i],
                                 MemoryImage::page_bytes));
        EXPECT_EQ(0,
                  std::memcmp(m, masks_b[i],
                              (MemoryImage::words_per_page / 64) *
                                  sizeof(std::uint64_t)));
        ++i;
    });
    (void)pages_a;
}

void
expectIdentical(const MatrixResult &a, const MatrixResult &b)
{
    ASSERT_EQ(a.mechanisms, b.mechanisms);
    ASSERT_EQ(a.benchmarks, b.benchmarks);
    for (std::size_t m = 0; m < a.mechanisms.size(); ++m) {
        for (std::size_t bi = 0; bi < a.benchmarks.size(); ++bi) {
            EXPECT_EQ(a.ipc[m][bi], b.ipc[m][bi])
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
            EXPECT_EQ(a.outputs[m][bi].core.cycles,
                      b.outputs[m][bi].core.cycles);
            EXPECT_EQ(a.outputs[m][bi].stats, b.outputs[m][bi].stats)
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
        }
    }
}

/** Lines of @p path containing @p needle. */
std::size_t
countLines(const std::string &path, const std::string &needle)
{
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line))
        if (line.find(needle) != std::string::npos)
            ++n;
    return n;
}

/** Check every trace event of the progress stream @p path carries
 *  dur_s, the seconds its materialization took: within the run so
 *  far (elapsed_s). Returns how many trace events there were. */
std::size_t
checkTraceDurations(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
        if (line.find("\"event\":\"trace\"") == std::string::npos)
            continue;
        ++n;
        const auto number = [&line](const std::string &key, double &out) {
            const std::string needle = "\"" + key + "\":";
            const std::size_t at = line.find(needle);
            if (at == std::string::npos)
                return false;
            out = std::strtod(line.c_str() + at + needle.size(), nullptr);
            return true;
        };
        double dur_s = -1.0, elapsed_s = -1.0;
        EXPECT_TRUE(number("dur_s", dur_s)) << line;
        EXPECT_TRUE(number("elapsed_s", elapsed_s)) << line;
        EXPECT_GE(dur_s, 0.0) << line;
        EXPECT_LE(dur_s, elapsed_s) << line;
    }
    return n;
}

std::vector<char>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in), {});
}

void
writeFile(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** Replace @p path with a copy whose byte at @p offset is flipped.
 *  Arena files change only by rename, as here: a trace that still
 *  maps the old file keeps reading its bytes. */
void
flipByte(const std::string &path, std::size_t offset)
{
    std::vector<char> bytes = readFile(path);
    ASSERT_LT(offset, bytes.size()) << path;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    const std::string tmp = path + ".flip";
    writeFile(tmp, bytes);
    std::filesystem::rename(tmp, path);
}

/** Every word of every page of @p want reads the same, and is
 *  touched the same, in @p got. */
void
expectSameWords(const MemoryImage &want, const MemoryImage &got)
{
    ASSERT_EQ(want.allocatedPages(), got.allocatedPages());
    std::size_t mismatches = 0;
    want.forEachPage([&](Addr page, const Word *, const std::uint64_t *) {
        const Addr base = page * MemoryImage::page_bytes;
        for (Addr a = base; a < base + MemoryImage::page_bytes; a += 8)
            if (want.read(a) != got.read(a) ||
                want.touched(a) != got.touched(a))
                ++mismatches;
    });
    EXPECT_EQ(mismatches, 0u);
}

/** makeTrace() with @p extra more image pages, one word written in
 *  each: a file several TraceArena::chunk_bytes long. */
MaterializedTrace
bigTrace(std::size_t extra)
{
    MaterializedTrace t = makeTrace();
    auto image = std::make_shared<MemoryImage>(*t.image);
    const Addr base = Addr(1) << 36;
    for (std::size_t i = 0; i < extra; ++i)
        image->write(base + i * MemoryImage::page_bytes +
                         8 * (i % MemoryImage::words_per_page),
                     0x1000 + i);
    t.image = std::move(image);
    return t;
}

/** The arena file for (@p key, @p t), serialized into one buffer by
 *  the format in docs/TRACE_ARENA.md. */
std::vector<char>
referenceBytes(const std::string &key, const MaterializedTrace &t)
{
    std::vector<char> bytes(72); // the header, filled in last
    const auto append = [&bytes](const void *data, std::size_t size) {
        const char *p = static_cast<const char *>(data);
        bytes.insert(bytes.end(), p, p + size);
    };
    const auto align = [&bytes] {
        bytes.resize((bytes.size() + 63) & ~std::size_t(63), 0);
    };
    append(key.data(), key.size());
    append(t.benchmark.data(), t.benchmark.size());
    const TraceView v = t.view();
    for (const auto &[data, size] :
         std::vector<std::pair<const void *, std::size_t>>{
             {v.pc, v.n * 4}, {v.addr, v.n * 4}, {v.value, v.n * 8},
             {v.op, v.n}, {v.dep1, v.n}, {v.dep2, v.n}}) {
        align();
        append(data, size);
    }
    align();
    std::uint64_t pages = 0;
    t.image->forEachPage([&](Addr index, const Word *words,
                             const std::uint64_t *mask) {
        const std::uint64_t idx = index;
        append(&idx, sizeof(idx));
        append(words, MemoryImage::page_bytes);
        append(mask, MemoryImage::words_per_page / 8);
        ++pages;
    });
    const auto field = [&bytes](std::size_t at, auto value) {
        std::memcpy(bytes.data() + at, &value, sizeof(value));
    };
    field(0, std::uint64_t(0x4e45524154524c4dull)); // "MLTRAREN"
    field(8, TraceArena::schema_version);
    field(12, static_cast<std::uint32_t>(key.size()));
    field(16, static_cast<std::uint32_t>(t.benchmark.size()));
    field(24, std::uint64_t(v.n));
    field(32, pages);
    field(40, t.window.skip);
    field(48, t.window.length);
    field(56, std::uint64_t(bytes.size()));
    field(64, TraceArena::checksum(
                  reinterpret_cast<const std::uint8_t *>(bytes.data()) + 72,
                  bytes.size() - 72));
    return bytes;
}

/** Resident bytes of the mapping containing @p addr, from
 *  /proc/self/smaps; nullopt where that file is absent. */
std::optional<std::size_t>
residentBytes(const void *addr)
{
    std::ifstream in("/proc/self/smaps");
    if (!in)
        return std::nullopt;
    const auto at = reinterpret_cast<std::uintptr_t>(addr);
    std::string line;
    bool inside = false;
    while (std::getline(in, line)) {
        unsigned long lo = 0, hi = 0;
        if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2 &&
            line.find(':') > line.find(' ')) {
            inside = lo <= at && at < hi;
        } else if (inside && line.rfind("Rss:", 0) == 0) {
            return std::strtoull(line.c_str() + 4, nullptr, 10) * 1024;
        }
    }
    return std::nullopt;
}

} // namespace

TEST(TraceArena, StreamedPublishWritesTheWholeFileSerialization)
{
    // Several staging buffers' worth of pages, so the checksum and
    // every column cross buffer boundaries.
    TraceArena arena(freshDir("reference"));
    const MaterializedTrace gen = bigTrace(1000);
    const std::string key = std::string("stream\0key", 10);
    ASSERT_TRUE(arena.publish(key, gen));
    const std::vector<char> file = readFile(arena.pathFor(key));
    EXPECT_GT(file.size(), 3 * TraceArena::chunk_bytes);
    EXPECT_TRUE(file == referenceBytes(key, gen));

    const auto loaded = arena.tryLoad(key);
    ASSERT_TRUE(loaded.has_value());
    expectSameTrace(gen, *loaded);
}

TEST(TraceArena, RejectsBitFlipInTheLastChunk)
{
    TraceArena arena(freshDir("lastchunk"));
    const std::string key = "last-chunk-key";
    ASSERT_TRUE(arena.publish(key, bigTrace(1000)));
    const std::string path = arena.pathFor(key);
    const std::size_t size = std::filesystem::file_size(path);
    ASSERT_GT(size, 3 * TraceArena::chunk_bytes);
    // The last chunk holds image pages only: a word late in the file.
    flipByte(path, size - 1000);
    EXPECT_FALSE(arena.tryLoad(key).has_value());
    EXPECT_EQ(arena.stats().rejected, 1u);
}

TEST(TraceArena, LoadLeavesAtMostOneChunkResident)
{
    TraceArena arena(freshDir("resident"));
    const MaterializedTrace gen = bigTrace(4200);
    ASSERT_TRUE(arena.publish("resident-key", gen));
    ASSERT_GE(std::filesystem::file_size(arena.pathFor("resident-key")),
              std::size_t(16) << 20);

    const auto loaded = arena.tryLoad("resident-key");
    ASSERT_TRUE(loaded.has_value());
    const auto rss = residentBytes(loaded->mapping->data());
    if (!rss)
        GTEST_SKIP() << "/proc/self/smaps is absent";
    EXPECT_LE(*rss, TraceArena::chunk_bytes + 4096);
    // The trace still reads every page: each faults back in on use.
    expectSameWords(*gen.image, *loaded->image);
}

TEST(TraceArena, PublishLoadRoundTripIsBitIdentical)
{
    TraceArena arena(freshDir("roundtrip"));
    const MaterializedTrace gen = makeTrace();
    const std::string key = "roundtrip-key";
    ASSERT_TRUE(arena.publish(key, gen));

    const auto loaded = arena.tryLoad(key);
    ASSERT_TRUE(loaded.has_value());
    expectSameTrace(gen, *loaded);

    // The mapped trace borrows: no owned SoA heap, and the mapping
    // spans the whole file.
    EXPECT_TRUE(loaded->mapped());
    EXPECT_TRUE(loaded->soa.borrowed());
    EXPECT_EQ(loaded->mapping->size(),
              std::filesystem::file_size(arena.pathFor(key)));
    EXPECT_FALSE(gen.mapped());

    // The image pages live in the mapping too: the image owns only
    // its slot table.
    ASSERT_GT(loaded->image->allocatedPages(), 0u);
    EXPECT_EQ(loaded->image->ownedPages(), 0u);
    EXPECT_LT(loaded->image->ownedBytes(),
              loaded->image->allocatedPages() * sizeof(MemoryImage::Page));

    const TraceArenaStats stats = arena.stats();
    EXPECT_EQ(stats.published, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.rejected, 0u);
}

TEST(TraceArena, FirstWriterWinsOnRepublish)
{
    TraceArena arena(freshDir("republish"));
    const MaterializedTrace gen = makeTrace();
    const std::string key = "republish-key";
    ASSERT_TRUE(arena.publish(key, gen));
    const auto mtime =
        std::filesystem::last_write_time(arena.pathFor(key));

    // A second publish of a valid key is a no-op (the existing file
    // may be mid-map in another process).
    ASSERT_TRUE(arena.publish(key, gen));
    EXPECT_EQ(arena.stats().published, 1u);
    EXPECT_EQ(std::filesystem::last_write_time(arena.pathFor(key)),
              mtime);
}

TEST(TraceArena, MissIsNotARejection)
{
    TraceArena arena(freshDir("miss"));
    EXPECT_FALSE(arena.tryLoad("never-published").has_value());
    EXPECT_EQ(arena.stats().misses, 1u);
    EXPECT_EQ(arena.stats().rejected, 0u);
}

TEST(TraceArena, RejectsTruncatedFile)
{
    TraceArena arena(freshDir("truncated"));
    const std::string key = "trunc-key";
    ASSERT_TRUE(arena.publish(key, makeTrace()));
    const std::string path = arena.pathFor(key);
    const auto full = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, full / 2);

    EXPECT_FALSE(arena.tryLoad(key).has_value());
    EXPECT_EQ(arena.stats().rejected, 1u);

    // Republish over the damaged file and the key is whole again.
    ASSERT_TRUE(arena.publish(key, makeTrace()));
    EXPECT_TRUE(arena.tryLoad(key).has_value());
    EXPECT_EQ(std::filesystem::file_size(path), full);
}

TEST(TraceArena, RejectsBitFlip)
{
    TraceArena arena(freshDir("bitflip"));
    const std::string key = "flip-key";
    ASSERT_TRUE(arena.publish(key, makeTrace()));
    const std::string path = arena.pathFor(key);
    // Deep inside the column payload: only the checksum catches it.
    flipByte(path, std::filesystem::file_size(path) / 2);
    EXPECT_FALSE(arena.tryLoad(key).has_value());
    EXPECT_EQ(arena.stats().rejected, 1u);
}

TEST(TraceArena, RejectsForeignSchemaVersion)
{
    TraceArena arena(freshDir("schema"));
    const std::string key = "schema-key";
    ASSERT_TRUE(arena.publish(key, makeTrace()));
    // The schema field is bytes 8..11 of the header (after the u64
    // magic); a reader of any other version must ignore the file.
    flipByte(arena.pathFor(key), 8);
    EXPECT_FALSE(arena.tryLoad(key).has_value());
    EXPECT_EQ(arena.stats().rejected, 1u);
}

TEST(TraceArena, RejectsWrongKeyAtSamePath)
{
    TraceArena arena(freshDir("wrongkey"));
    const std::string key = "the-real-key";
    ASSERT_TRUE(arena.publish(key, makeTrace()));
    // Simulate a filename hash collision: another key's lookup lands
    // on this file. The stored key must not match.
    const std::string impostor = "some-other-key";
    std::filesystem::copy_file(
        arena.pathFor(key), arena.pathFor(impostor),
        std::filesystem::copy_options::overwrite_existing);
    EXPECT_FALSE(arena.tryLoad(impostor).has_value());
    EXPECT_EQ(arena.stats().rejected, 1u);
}

TEST(TraceArena, RejectsPageIndicesNotStrictlyAscending)
{
    // Header fields (trace_arena.cc): the u64 page count at byte 32,
    // the checksum of everything after the 72-byte header at 64. The
    // pages are the file's last `pages` entries, each led by its u64
    // index. The file spans several validation chunks, so one page
    // entry straddles the first chunk boundary inside the page
    // section.
    constexpr std::size_t entry = sizeof(MemoryImage::StoredPage);
    TraceArena arena(freshDir("pageorder"));
    const MaterializedTrace gen = bigTrace(1000);
    const std::uint64_t pages = gen.image->allocatedPages();

    // Publish under @p key, copy page @p from's index over page
    // @p to's, then recompute the checksum: only the ordering check
    // can object to the result. Returns the entry straddling the
    // first chunk boundary of the page section.
    const auto forge = [&](const std::string &key, std::size_t from,
                           std::size_t to) {
        EXPECT_TRUE(arena.publish(key, gen));
        const std::string path = arena.pathFor(key);
        std::vector<char> bytes = readFile(path);
        std::uint64_t stored = 0;
        std::memcpy(&stored, bytes.data() + 32, sizeof(stored));
        EXPECT_EQ(stored, pages);
        const std::size_t first = bytes.size() - pages * entry;
        const std::size_t boundary =
            (first / TraceArena::chunk_bytes + 1) * TraceArena::chunk_bytes;
        const std::size_t straddler = (boundary - first) / entry;
        EXPECT_LT(first + straddler * entry, boundary);
        EXPECT_GT(first + (straddler + 1) * entry, boundary);
        std::memcpy(bytes.data() + first + to * entry,
                    bytes.data() + first + from * entry,
                    sizeof(std::uint64_t));
        const std::uint64_t ck = TraceArena::checksum(
            reinterpret_cast<const std::uint8_t *>(bytes.data()) + 72,
            bytes.size() - 72);
        std::memcpy(bytes.data() + 64, &ck, sizeof(ck));
        writeFile(path, bytes);
        return straddler;
    };

    const std::size_t straddler = forge("intact-key", 0, 0);
    EXPECT_TRUE(arena.tryLoad("intact-key").has_value());
    ASSERT_GT(straddler, 0u);

    // The first two pages share an index...
    forge("duplicate-key", 0, 1);
    EXPECT_FALSE(arena.tryLoad("duplicate-key").has_value());
    EXPECT_EQ(arena.stats().rejected, 1u);

    // ...or the second falls below the first...
    forge("descending-key", 2, 0);
    EXPECT_FALSE(arena.tryLoad("descending-key").has_value());
    EXPECT_EQ(arena.stats().rejected, 2u);

    // ...or the entry straddling a chunk boundary repeats its
    // predecessor's index...
    forge("straddler-key", straddler - 1, straddler);
    EXPECT_FALSE(arena.tryLoad("straddler-key").has_value());
    EXPECT_EQ(arena.stats().rejected, 3u);

    // ...or the first index read in the next chunk repeats the
    // straddler's, read in the chunk before.
    forge("successor-key", straddler, straddler + 1);
    EXPECT_FALSE(arena.tryLoad("successor-key").has_value());
    EXPECT_EQ(arena.stats().rejected, 4u);
}

TEST(TraceArena, MappedImageReadsEveryWordOfTheGeneratedImage)
{
    TraceArena arena(freshDir("words"));
    const MaterializedTrace gen = makeTrace("mcf", 0, 50'000);
    ASSERT_TRUE(arena.publish("words-key", gen));
    const auto loaded = arena.tryLoad("words-key");
    ASSERT_TRUE(loaded.has_value());
    expectSameWords(*gen.image, *loaded->image);
    // Pages the generator never touched read their defaults in both.
    const Addr untouched = Addr(1) << 40;
    EXPECT_EQ(loaded->image->read(untouched),
              MemoryImage::defaultValue(untouched));
}

TEST(TraceArena, MappedImageOutlivesTraceAndArena)
{
    const MaterializedTrace gen = makeTrace();
    std::shared_ptr<const MemoryImage> image;
    {
        TraceArena arena(freshDir("outlive"));
        ASSERT_TRUE(arena.publish("outlive-key", gen));
        auto loaded = arena.tryLoad("outlive-key");
        ASSERT_TRUE(loaded.has_value());
        image = loaded->image;
        EXPECT_EQ(image->ownedPages(), 0u);
    }
    // The trace, its mapping reference and the arena are gone, and
    // so is the file: the image's own reference keeps the pages
    // mapped.
    std::filesystem::remove_all(tmpPath("outlive"));
    expectSameWords(*gen.image, *image);

    // A copy owns its pages and can be written; the mapped image is
    // untouched.
    MemoryImage copy = *image;
    EXPECT_EQ(copy.ownedPages(), copy.allocatedPages());
    std::size_t checked = 0;
    gen.image->forEachPage([&](Addr page, const Word *,
                               const std::uint64_t *) {
        const Addr a = page * MemoryImage::page_bytes + 8;
        copy.write(a, ~image->read(a));
        EXPECT_EQ(copy.read(a), ~image->read(a));
        EXPECT_EQ(image->read(a), gen.image->read(a));
        ++checked;
    });
    EXPECT_GT(checked, 0u);
}

TEST(TraceArena, ConcurrentDualWriterLeavesOneValidFile)
{
    const std::string dir = freshDir("dualwrite");
    const std::string key = "contended-key";
    const MaterializedTrace gen = makeTrace();

    // Two arenas over one directory, racing the same key — the
    // in-process analogue of two shard workers. rename() is atomic,
    // so whatever the interleaving, the key ends valid.
    TraceArena a(dir), b(dir);
    std::thread ta([&] { a.publish(key, gen); });
    std::thread tb([&] { b.publish(key, gen); });
    ta.join();
    tb.join();

    TraceArena reader(dir);
    const auto loaded = reader.tryLoad(key);
    ASSERT_TRUE(loaded.has_value());
    expectSameTrace(gen, *loaded);
    // No stray tmp files left behind.
    std::size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        EXPECT_EQ(e.path().extension(), ".mltrace") << e.path();
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

TEST(TraceArena, MaterializeIntoRegeneratesOverCorruption)
{
    const std::string dir = freshDir("regen");
    const RunConfig cfg = arbConfig();
    const std::string key = traceCacheKey("swim", cfg);

    TraceCache cold;
    cold.setArena(std::make_shared<TraceArena>(dir));
    TraceCache::Future fut;
    ASSERT_EQ(cold.claim(key, fut), TraceCache::Claim::Owner);
    TraceOrigin origin = TraceOrigin::Mapped;
    const auto first = ExperimentEngine::materializeInto(
        cold, key, "swim", cfg, &origin);
    EXPECT_EQ(origin, TraceOrigin::Generated);
    // The miss was published, and the owner itself ends up mapped
    // (its heap copy swapped for the shared page-cache mapping).
    EXPECT_TRUE(first->mapped());

    // Corrupt the published file: a fresh cache must silently fall
    // back to generation — the arena is never a correctness
    // dependency — and republish a valid file.
    const std::string path = cold.arena()->pathFor(key);
    flipByte(path, std::filesystem::file_size(path) - 1);

    TraceCache warm;
    warm.setArena(std::make_shared<TraceArena>(dir));
    ASSERT_EQ(warm.claim(key, fut), TraceCache::Claim::Owner);
    const auto second = ExperimentEngine::materializeInto(
        warm, key, "swim", cfg, &origin);
    EXPECT_EQ(origin, TraceOrigin::Generated);
    expectSameTrace(*first, *second);
    EXPECT_EQ(warm.arena()->stats().rejected, 1u);
    EXPECT_EQ(warm.arena()->stats().published, 1u);

    // Third time is the charm: a clean arena hit, no generation.
    TraceCache third;
    third.setArena(std::make_shared<TraceArena>(dir));
    ASSERT_EQ(third.claim(key, fut), TraceCache::Claim::Owner);
    const auto mapped = ExperimentEngine::materializeInto(
        third, key, "swim", cfg, &origin);
    EXPECT_EQ(origin, TraceOrigin::Mapped);
    expectSameTrace(*first, *mapped);
}

TEST(TraceArena, WarmEngineRunIsByteIdenticalWithZeroGenEvents)
{
    const std::string dir = freshDir("warmrun");
    const SweepSpec spec = arbSpec();

    // Reference: no arena at all.
    MatrixResult reference;
    {
        EngineOptions opts;
        opts.threads = 2;
        ExperimentEngine engine(opts);
        reference = engine.run(spec).matrix(0);
    }

    const std::string cold_progress = tmpPath("cold.jsonl");
    const std::string warm_progress = tmpPath("warm.jsonl");
    {
        EngineOptions opts;
        opts.threads = 2;
        opts.trace_dir = dir;
        opts.progress_path = cold_progress;
        ExperimentEngine engine(opts);
        expectIdentical(reference, engine.run(spec).matrix(0));
    }
    EXPECT_EQ(countLines(cold_progress, "\"src\":\"gen\""),
              benchs.size());
    EXPECT_EQ(countLines(cold_progress, "\"src\":\"arena\""), 0u);
    EXPECT_EQ(checkTraceDurations(cold_progress), benchs.size());

    // A fresh engine (fresh process, as far as the cache knows) over
    // the same directory: every window mmaps, nothing generates.
    {
        EngineOptions opts;
        opts.threads = 2;
        opts.trace_dir = dir;
        opts.progress_path = warm_progress;
        ExperimentEngine engine(opts);
        expectIdentical(reference, engine.run(spec).matrix(0));
    }
    EXPECT_EQ(countLines(warm_progress, "\"src\":\"gen\""), 0u);
    EXPECT_EQ(countLines(warm_progress, "\"src\":\"arena\""),
              benchs.size());
    EXPECT_EQ(checkTraceDurations(warm_progress), benchs.size());

    std::remove(cold_progress.c_str());
    std::remove(warm_progress.c_str());
}

TEST(TraceArena, TwoShardProcessBackendSharesOneArena)
{
    const std::string dir = freshDir("shards");
    const SweepSpec spec = arbSpec();

    MatrixResult reference;
    {
        EngineOptions opts;
        opts.threads = 2;
        ExperimentEngine engine(opts);
        reference = engine.run(spec).matrix(0);
    }

    // Warm the arena first so the forked workers' trace events are
    // deterministic: every worker must map, none may generate.
    {
        EngineOptions opts;
        opts.threads = 2;
        opts.trace_dir = dir;
        ExperimentEngine engine(opts);
        expectIdentical(reference, engine.run(spec).matrix(0));
    }

    const std::string store_path = tmpPath("shards.store");
    const std::string progress = tmpPath("shards.jsonl");
    std::remove(store_path.c_str());
    ResultStore store(store_path);
    ProcessShardOptions popts;
    popts.shards = 2;
    ProcessShardBackend backend(popts);
    EngineOptions opts;
    opts.threads = 1;
    opts.store = &store;
    opts.backend = &backend;
    opts.trace_dir = dir;
    opts.progress_path = progress;
    ExperimentEngine engine(opts);
    expectIdentical(reference, engine.run(spec).matrix(0));

    // Both workers drew every window from the shared arena.
    std::size_t gen = 0, arena_hits = 0;
    for (const std::size_t shard : {0u, 1u}) {
        const std::string p =
            progress + ".shard" + std::to_string(shard);
        gen += countLines(p, "\"src\":\"gen\"");
        arena_hits += countLines(p, "\"src\":\"arena\"");
        std::remove(p.c_str());
    }
    EXPECT_EQ(gen, 0u);
    EXPECT_GT(arena_hits, 0u);

    std::remove(store_path.c_str());
    std::remove(progress.c_str());
}

/** @file Persistent trace arena: publish→tryLoad round-trips are
 *  bit-identical, corrupted/truncated/foreign files are rejected and
 *  transparently regenerated, concurrent writers leave one valid
 *  file, mapped traces charge only owned bytes to the cache budget,
 *  and warm engine runs (thread-pool and forked shards alike)
 *  reproduce cold results byte-for-byte with zero src=gen events. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
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

/** Flip one byte of @p path at @p offset. */
void
flipByte(const std::string &path, std::size_t offset)
{
    std::fstream f(path,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open()) << path;
    f.seekg(static_cast<std::streamoff>(offset));
    char c = 0;
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&c, 1);
}

} // namespace

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
    EXPECT_EQ(loaded->soa.footprintBytes(), 0u);
    EXPECT_EQ(loaded->footprintMappedBytes(),
              std::filesystem::file_size(arena.pathFor(key)));
    EXPECT_LT(loaded->footprintOwnedBytes(), gen.footprintOwnedBytes());
    EXPECT_FALSE(gen.mapped());

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

TEST(TraceArena, BudgetChargesOwnedBytesOnly)
{
    TraceArena arena(freshDir("budget"));
    const std::string key = "budget-key";
    const MaterializedTrace gen = makeTrace("swim", 0, 100'000);
    ASSERT_TRUE(arena.publish(key, gen));
    auto loaded = arena.tryLoad(key);
    ASSERT_TRUE(loaded.has_value());

    // A budget far below the trace's mapped footprint but above its
    // owned footprint: the mapped entry must stay resident, because
    // fulfill() charges owned bytes only (the OS page cache owns the
    // mapping's bytes).
    const std::size_t owned = loaded->footprintOwnedBytes();
    const std::size_t mapped_bytes = loaded->footprintMappedBytes();
    ASSERT_LT(owned, mapped_bytes);

    TraceCache cache;
    cache.setByteBudget(owned + owned / 2);
    TraceCache::Future fut;
    ASSERT_EQ(cache.claim(key, fut), TraceCache::Claim::Owner);
    cache.fulfill(key, std::move(*loaded));
    EXPECT_TRUE(cache.ready(key));
    EXPECT_EQ(cache.residentBytes(), owned);
    EXPECT_LE(cache.residentBytes(), cache.byteBudget());

    // The same budget cannot hold the generated (heap-owned) copy.
    ASSERT_GT(gen.footprintOwnedBytes(), cache.byteBudget());
}

TEST(TraceArena, WarmEngineRunIsByteIdenticalWithZeroGenEvents)
{
    const std::string dir = freshDir("warmrun");
    const RunConfig cfg = arbConfig();

    // Reference: no arena at all.
    MatrixResult reference;
    {
        EngineOptions opts;
        opts.threads = 2;
        ExperimentEngine engine(opts);
        reference = engine.run(mechs, benchs, cfg);
    }

    const std::string cold_progress = tmpPath("cold.jsonl");
    const std::string warm_progress = tmpPath("warm.jsonl");
    {
        EngineOptions opts;
        opts.threads = 2;
        opts.trace_dir = dir;
        opts.progress_path = cold_progress;
        ExperimentEngine engine(opts);
        expectIdentical(reference, engine.run(mechs, benchs, cfg));
    }
    EXPECT_EQ(countLines(cold_progress, "\"src\":\"gen\""),
              benchs.size());
    EXPECT_EQ(countLines(cold_progress, "\"src\":\"arena\""), 0u);

    // A fresh engine (fresh process, as far as the cache knows) over
    // the same directory: every window mmaps, nothing generates.
    {
        EngineOptions opts;
        opts.threads = 2;
        opts.trace_dir = dir;
        opts.progress_path = warm_progress;
        ExperimentEngine engine(opts);
        expectIdentical(reference, engine.run(mechs, benchs, cfg));
    }
    EXPECT_EQ(countLines(warm_progress, "\"src\":\"gen\""), 0u);
    EXPECT_EQ(countLines(warm_progress, "\"src\":\"arena\""),
              benchs.size());

    std::remove(cold_progress.c_str());
    std::remove(warm_progress.c_str());
}

TEST(TraceArena, TwoShardProcessBackendSharesOneArena)
{
    const std::string dir = freshDir("shards");
    const RunConfig cfg = arbConfig();

    MatrixResult reference;
    {
        EngineOptions opts;
        opts.threads = 2;
        ExperimentEngine engine(opts);
        reference = engine.run(mechs, benchs, cfg);
    }

    // Warm the arena first so the forked workers' trace events are
    // deterministic: every worker must map, none may generate.
    {
        EngineOptions opts;
        opts.threads = 2;
        opts.trace_dir = dir;
        ExperimentEngine engine(opts);
        expectIdentical(reference, engine.run(mechs, benchs, cfg));
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
    expectIdentical(reference, engine.run(mechs, benchs, cfg));

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

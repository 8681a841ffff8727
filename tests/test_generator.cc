/** @file Unit tests for the trace generator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "trace/generator.hh"
#include "trace/simpoint.hh"
#include "trace/spec_suite.hh"
#include "trace/window.hh"

using namespace microlib;

namespace
{

SpecProgram
tinyProgram()
{
    SpecProgram p;
    p.name = "tiny";
    p.seed = 99;
    p.mem_ratio = 0.4;
    p.stack_frac = 0.5;
    StreamKernel::Params sp;
    sp.base = heap_base;
    sp.bytes = 1 << 16;
    sp.stride = 8;
    p.kernels = {[sp] {
        return std::unique_ptr<PatternKernel>(new StreamKernel(sp));
    }};
    p.segments = {{0, 100'000}};
    p.nominal_length = 200'000;
    return p;
}

} // namespace

TEST(Generator, Deterministic)
{
    SpecGenerator a(tinyProgram()), b(tinyProgram());
    TraceRecord ra, rb;
    for (int i = 0; i < 50000; ++i) {
        a.next(ra);
        b.next(rb);
        ASSERT_EQ(ra.pc, rb.pc);
        ASSERT_EQ(ra.addr, rb.addr);
        ASSERT_EQ(static_cast<int>(ra.op), static_cast<int>(rb.op));
        ASSERT_EQ(ra.value, rb.value);
    }
}

TEST(Generator, ResetRestartsExactly)
{
    // Past two segment boundaries (the segment is 100k long): a
    // phase change moves the code-spread copy, so a reset that kept
    // the phase count would replay different PCs from there on.
    SpecGenerator gen(tinyProgram());
    std::vector<TraceRecord> first(250'000);
    for (auto &r : first)
        gen.next(r);
    gen.reset();
    EXPECT_EQ(gen.emitted(), 0u);
    TraceRecord r;
    for (std::size_t i = 0; i < first.size(); ++i) {
        const TraceRecord &expect = first[i];
        gen.next(r);
        ASSERT_EQ(r.pc, expect.pc) << i;
        ASSERT_EQ(r.addr, expect.addr) << i;
        ASSERT_EQ(r.value, expect.value) << i;
        ASSERT_EQ(r.op, expect.op) << i;
        ASSERT_EQ(r.bb, expect.bb) << i;
        ASSERT_EQ(r.dep1, expect.dep1) << i;
        ASSERT_EQ(r.dep2, expect.dep2) << i;
    }
}

TEST(Generator, MemRatioConverges)
{
    SpecGenerator gen(tinyProgram());
    TraceRecord r;
    int mem = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        gen.next(r);
        mem += r.isMem() ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(mem) / n, 0.4, 0.05);
}

TEST(Generator, LoadsCarryImageValues)
{
    SpecGenerator gen(tinyProgram());
    TraceRecord r;
    for (int i = 0; i < 10000; ++i) {
        gen.next(r);
        if (r.isLoad()) {
            EXPECT_EQ(r.value, gen.image().read(r.addr))
                << "load value must match the functional image";
        }
    }
}

TEST(Generator, StoresUpdateImage)
{
    SpecGenerator gen(tinyProgram());
    TraceRecord r;
    bool found = false;
    for (int i = 0; i < 20000 && !found; ++i) {
        gen.next(r);
        if (r.isStore()) {
            EXPECT_EQ(gen.image().read(r.addr), r.value);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Generator, StableMemSitePcs)
{
    // All loads of one static site must share a PC (PC-indexed
    // mechanisms depend on it): count distinct load PCs; it must be
    // small (sites x spread), not grow with the trace.
    SpecGenerator gen(tinyProgram());
    TraceRecord r;
    std::set<std::uint32_t> pcs;
    for (int i = 0; i < 100000; ++i) {
        gen.next(r);
        if (r.isMem())
            pcs.insert(r.pc);
    }
    EXPECT_LT(pcs.size(), 64u);
}

TEST(Generator, StackReferencesAreLocal)
{
    SpecGenerator gen(tinyProgram());
    TraceRecord r;
    int stack_refs = 0, mem_refs = 0;
    for (int i = 0; i < 100000; ++i) {
        gen.next(r);
        if (!r.isMem())
            continue;
        ++mem_refs;
        if (r.addr >= stack_base && r.addr < stack_base + 64 * 1024)
            ++stack_refs;
    }
    EXPECT_NEAR(static_cast<double>(stack_refs) / mem_refs, 0.5, 0.05);
}

TEST(Generator, SkipMatchesStreaming)
{
    SpecGenerator a(tinyProgram());
    a.skip(12345);
    TraceRecord ra;
    a.next(ra);

    SpecGenerator b(tinyProgram());
    TraceRecord rb;
    for (int i = 0; i < 12346; ++i)
        b.next(rb);
    EXPECT_EQ(ra.pc, rb.pc);
    EXPECT_EQ(ra.addr, rb.addr);
}

TEST(Generator, MaterializeWindow)
{
    const MaterializedTrace t =
        materialize(tinyProgram(), TraceWindow{1000, 5000});
    EXPECT_EQ(t.benchmark, "tiny");
    ASSERT_NE(t.image, nullptr);
    // The columns hold exactly the generator's records 1000..5999.
    const TraceView v = t.view();
    ASSERT_EQ(v.size(), 5000u);
    SpecGenerator gen(tinyProgram());
    gen.skip(1000);
    TraceRecord r;
    for (std::size_t i = 0; i < v.size(); ++i) {
        gen.next(r);
        ASSERT_EQ(v.pc[i], r.pc) << i;
        ASSERT_EQ(v.addr[i], r.addr) << i;
        ASSERT_EQ(v.value[i], r.value) << i;
        ASSERT_EQ(v.op[i], r.op) << i;
        ASSERT_EQ(v.dep1[i], r.dep1) << i;
        ASSERT_EQ(v.dep2[i], r.dep2) << i;
    }
}

TEST(Generator, MaterializeIsPureFunctionOfWindow)
{
    const MaterializedTrace a =
        materialize(tinyProgram(), TraceWindow{500, 2000});
    const MaterializedTrace b =
        materialize(tinyProgram(), TraceWindow{500, 2000});
    const TraceView va = a.view();
    const TraceView vb = b.view();
    ASSERT_EQ(va.size(), 2000u);
    ASSERT_EQ(vb.size(), va.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        ASSERT_EQ(va.pc[i], vb.pc[i]) << i;
        ASSERT_EQ(va.addr[i], vb.addr[i]) << i;
        ASSERT_EQ(va.value[i], vb.value[i]) << i;
        ASSERT_EQ(va.op[i], vb.op[i]) << i;
        ASSERT_EQ(va.dep1[i], vb.dep1[i]) << i;
        ASSERT_EQ(va.dep2[i], vb.dep2[i]) << i;
    }
}

TEST(Generator, RejectsBadPrograms)
{
    SpecProgram p = tinyProgram();
    p.segments.clear();
    EXPECT_EXIT(SpecGenerator{p}, ::testing::ExitedWithCode(1), "");
}

TEST(Generator, SerialChaseLoadsDependOnPriorLoad)
{
    SpecProgram p = tinyProgram();
    PointerChaseKernel::Params cp;
    cp.base = heap_base;
    cp.node_bytes = 64;
    cp.node_count = 1024;
    cp.payload_touches = 0.0;
    p.kernels = {[cp] {
        return std::unique_ptr<PatternKernel>(
            new PointerChaseKernel(cp));
    }};
    p.stack_frac = 0.0;
    SpecGenerator gen(p);
    TraceRecord r;
    int serial = 0, loads = 0;
    std::int64_t last_load_idx = -1;
    for (int i = 0; i < 50000; ++i) {
        gen.next(r);
        if (!r.isLoad())
            continue;
        ++loads;
        // dep1 must point back at (or beyond) the previous load.
        if (last_load_idx >= 0 && r.dep1 != 0 &&
            i - r.dep1 <= last_load_idx)
            ++serial;
        last_load_idx = i;
    }
    EXPECT_GT(loads, 0);
    EXPECT_GT(static_cast<double>(serial) / loads, 0.8);
}

// --- Link table ------------------------------------------------------
//
// PointerChaseKernel follows links from its own table of link words,
// kept current by the generator forwarding every store into the
// chase region (see PointerChaseKernel). These tests make a second
// kernel rewrite link words, so a stale table would send the walk
// somewhere other than the link word the trace records.

namespace
{

constexpr std::uint64_t chase_node_bytes = 64;
constexpr std::uint64_t chase_nodes = 256;
constexpr std::uint64_t chase_next_offset = 8;
/** An off-grid head lies this far into a node. */
constexpr std::uint64_t off_grid = 24;

/** Stores onto the chase region's link words: on-grid pointers,
 *  off-grid pointers, words an off-grid head reads as its link, and
 *  values that are not heap pointers. */
class LinkWriterKernel : public PatternKernel
{
  public:
    MemRef
    next(MemoryImage &img, Rng &rng) override
    {
        (void)img;
        MemRef ref;
        ref.store = true;
        const Addr node = heap_base + chase_node_bytes *
                                          rng.nextBounded(chase_nodes);
        const Addr target = heap_base + chase_node_bytes *
                                            rng.nextBounded(chase_nodes);
        ref.addr = node + chase_next_offset;
        switch (rng.nextBounded(5)) {
          case 0:
            ref.store_value = target;
            break;
          case 1:
            ref.store_value = target + off_grid;
            break;
          case 2:
            // The link an off-grid head at node + off_grid reads.
            ref.addr += off_grid;
            ref.store_value = target;
            break;
          case 3:
            ref.store_value = target + 4; // misaligned: not a pointer
            break;
          default:
            ref.store_value = MemoryImage::defaultValue(ref.addr);
            break;
        }
        return ref;
    }
    unsigned slots() const override { return 1; }
    const char *kind() const override { return "linkwriter"; }
};

/** A pointer chase (kernel 0) interleaved with LinkWriterKernel
 *  (kernel 1); every memory reference is a kernel reference. */
SpecProgram
linkWriterProgram()
{
    SpecProgram p = tinyProgram();
    p.name = "linkwriter";
    p.stack_frac = 0.0;
    PointerChaseKernel::Params cp;
    cp.base = heap_base;
    cp.node_bytes = chase_node_bytes;
    cp.node_count = chase_nodes;
    cp.next_offset = chase_next_offset;
    cp.payload_touches = 0.0;
    p.kernels = {
        [cp] {
            return std::unique_ptr<PatternKernel>(
                new PointerChaseKernel(cp));
        },
        [] {
            return std::unique_ptr<PatternKernel>(new LinkWriterKernel);
        },
    };
    p.segments = {{0, 3'000}, {1, 700}};
    return p;
}

/** A link load of kernel 0 (its slot 0 block, see buildBlock). */
bool
isLinkLoad(const TraceRecord &r)
{
    return r.isLoad() && r.bb == 0;
}

std::vector<TraceRecord>
walk(SpecGenerator &gen, std::uint64_t n)
{
    std::vector<TraceRecord> out(n);
    for (TraceRecord &r : out)
        gen.next(r);
    return out;
}

} // namespace

TEST(LinkTable, EachLinkLoadFollowsTheWordItRead)
{
    SpecGenerator gen(linkWriterProgram());
    const std::vector<TraceRecord> recs = walk(gen, 400'000);
    std::size_t links = 0, rewritten = 0, off = 0, restarts = 0;
    const TraceRecord *prev = nullptr;
    for (const TraceRecord &r : recs) {
        if (!isLinkLoad(r))
            continue;
        ++links;
        const Addr node = r.addr - chase_next_offset;
        const std::uint64_t rel = node - heap_base;
        if (rel % chase_node_bytes != 0)
            ++off;
        if (prev) {
            const bool pointer = looksLikeHeapPointer(prev->value);
            const Addr want =
                (pointer ? prev->value : heap_base) + chase_next_offset;
            ASSERT_EQ(r.addr, want) << "link load " << links;
            restarts += !pointer;
        }
        // Setup links every node to another whole node; a value
        // off that grid or not a pointer came from the writer.
        if (!looksLikeHeapPointer(r.value) ||
            (r.value - heap_base) % chase_node_bytes != 0)
            ++rewritten;
        prev = &r;
    }
    EXPECT_GT(links, 10'000u);
    EXPECT_GT(rewritten, 100u);
    EXPECT_GT(off, 100u);
    EXPECT_GT(restarts, 100u);
}

TEST(LinkTable, SkipThenNextMatchesThePlainWalk)
{
    const SpecProgram prog = linkWriterProgram();
    SpecGenerator plain(prog);
    const std::vector<TraceRecord> want = walk(plain, 260'000);
    // Block edges, both sides of a segment boundary, and skips
    // across many segments of link rewrites.
    for (const std::uint64_t n :
         {1ull, 49ull, 50ull, 51ull, 2'999ull, 3'000ull, 3'701ull,
          100'003ull, 250'000ull}) {
        SpecGenerator gen(prog);
        gen.skip(n);
        const std::vector<TraceRecord> got = walk(gen, 2'000);
        for (std::size_t i = 0; i < got.size(); ++i) {
            const TraceRecord &a = got[i], &b = want[n + i];
            ASSERT_TRUE(a.pc == b.pc && a.addr == b.addr &&
                        a.value == b.value && a.op == b.op &&
                        a.dep1 == b.dep1 && a.dep2 == b.dep2)
                << "skip(" << n << ") then record " << i;
        }
    }
}

// --- Golden stream --------------------------------------------------
//
// Every reported number is a function of the generated stream, so a
// speed-up of the generator, the Rng or the memory image must leave
// it unchanged to the bit. These digests were recorded from the
// reference implementation; Deterministic above only compares two
// instances of the same code and cannot catch a changed stream.

namespace
{

/** Order-sensitive 64-bit digest of a sequence of words. */
struct Digest
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        h ^= v;
        h *= 0x100000001b3ull;
        h ^= h >> 29;
    }
};

struct StreamDigest
{
    std::uint64_t records;
    std::uint64_t image;
};

/** Fold every field of @p r into @p d. */
void
addRecord(Digest &d, const TraceRecord &r)
{
    d.add(r.pc);
    d.add(r.addr);
    d.add(r.value);
    d.add(r.bb);
    d.add(static_cast<std::uint64_t>(r.op));
    d.add(r.dep1);
    d.add(r.dep2);
}

/** Digest of @p gen's image page by page (forEachPage order, as the
 *  trace arena serializes it). */
std::uint64_t
imageDigest(const SpecGenerator &gen)
{
    Digest id;
    gen.image().forEachPage(
        [&id](Addr page, const Word *words, const std::uint64_t *mask) {
            id.add(page);
            for (std::uint64_t w = 0; w < MemoryImage::words_per_page; ++w)
                id.add(words[w]);
            for (std::uint64_t m = 0;
                 m < MemoryImage::words_per_page / 64; ++m)
                id.add(mask[m]);
        });
    return id.h;
}

/** Digest every field of the first @p n records of @p name, then the
 *  generator's image. */
StreamDigest
streamDigest(const std::string &name, std::uint64_t n)
{
    SpecGenerator gen(specProgram(name));
    Digest rd;
    TraceRecord r;
    for (std::uint64_t i = 0; i < n; ++i) {
        gen.next(r);
        addRecord(rd, r);
    }
    return {rd.h, imageDigest(gen)};
}

/** Digest of a BBV profile: its shape, then every float's bits. */
std::uint64_t
profileDigest(const BbvProfile &profile)
{
    Digest d;
    d.add(profile.interval_length);
    d.add(profile.vectors.size());
    for (const auto &vec : profile.vectors)
        for (const float f : vec) {
            std::uint32_t bits;
            std::memcpy(&bits, &f, sizeof(bits));
            d.add(bits);
        }
    return d.h;
}

std::vector<std::string>
allProgramNames()
{
    std::vector<std::string> names = specBenchmarkNames();
    for (const auto &extra : extraBenchmarkNames())
        names.push_back(extra);
    return names;
}

} // namespace

TEST(GoldenStream, FirstRecordsAndImageOfEveryProgram)
{
    // name -> {record digest, image digest} over the first 200k
    // records.
    const std::map<std::string, StreamDigest> golden = {
        {"ammp", {0x8f66e8d7a407a80aull, 0x5433d9fa14cd480aull}},
        {"applu", {0x4463b74bc1daf9b0ull, 0x8533476e9fa9f58dull}},
        {"apsi", {0xe6b07523f4fe0f1full, 0x3d695f7bd119d784ull}},
        {"art", {0xad4658fb8b7dd7a8ull, 0xc6182a7504449d4eull}},
        {"equake", {0xa5445e96b1a547e9ull, 0xe6d5fee2792d0efcull}},
        {"facerec", {0xa202231ca6b31685ull, 0xb8f71054a66cd329ull}},
        {"fma3d", {0xc2ce535afff51bfdull, 0x9501468f99c1b8f7ull}},
        {"galgel", {0x6132ef6ee1650d98ull, 0xaa9d5a013e88f8a7ull}},
        {"lucas", {0xa0a3a2d15084a703ull, 0xb74d0d2c410ddebcull}},
        {"mesa", {0x602223dec25c00ecull, 0xfc9ccc465efe8331ull}},
        {"mgrid", {0xa47a7c11744178eaull, 0x43a1cd3ba9dcfd68ull}},
        {"sixtrack", {0x7484a9b00cf3eefcull, 0x843608ebd7490c1cull}},
        {"swim", {0xa6def88f9ee3f3faull, 0xb19edb2e82875e8aull}},
        {"wupwise", {0x6cd2f936fdc2f26dull, 0x4c6b0c094959dfa1ull}},
        {"bzip2", {0x274b2b684def8d2dull, 0xac5ea09b21b389fdull}},
        {"crafty", {0xe94cc1692e1988a6ull, 0x1f91105c0da4ff99ull}},
        {"eon", {0xa8ca306988e9642eull, 0x54e077c3963f00bbull}},
        {"gap", {0xd1d4c150e2590ce2ull, 0xbc88f7dc2dc4ba59ull}},
        {"gcc", {0x4729c6f1c1db5c42ull, 0x58c2356a4cefdbcdull}},
        {"gzip", {0x92b2c320ee24660eull, 0xb5cf37313f59562eull}},
        {"mcf", {0x53d9490cf5b489e0ull, 0x81e7ca162bf7fc21ull}},
        {"parser", {0xf70eade5c1239526ull, 0x4093e4d7ef84ece8ull}},
        {"perlbmk", {0xdadfbb1ad35cf774ull, 0x1fca7970c506682bull}},
        {"twolf", {0xd2f748a63bb4e2fdull, 0xa7aefe20b2753901ull}},
        {"vortex", {0x123c99036b1942a0ull, 0x7ce8f413fcba0368ull}},
        {"vpr", {0xda5f6962139aa7dfull, 0x9acffbca018f06c5ull}},
        {"pchase", {0xa29beae4ce702755ull, 0x4e6045d7d7589ffdull}},
    };

    std::ostringstream diff;
    for (const auto &name : allProgramNames()) {
        const StreamDigest got = streamDigest(name, 200'000);
        char line[128];
        std::snprintf(line, sizeof(line),
                      "        {\"%s\", {0x%016llxull, 0x%016llxull}},\n",
                      name.c_str(),
                      static_cast<unsigned long long>(got.records),
                      static_cast<unsigned long long>(got.image));
        auto it = golden.find(name);
        if (it == golden.end() || it->second.records != got.records ||
            it->second.image != got.image)
            diff << line;
    }
    EXPECT_TRUE(diff.str().empty())
        << "programs whose stream changed (got):\n" << diff.str();
}

TEST(GoldenStream, SensitivitySweepSimPoints)
{
    // The SimPoint starts examples/sensitivity.sweep resolves
    // (interval 100k, k = 4): the windows its reports are built on.
    // The profiles behind them are pinned too, so a BBV change that
    // happens to pick the same interval cannot pass unseen.
    struct Golden
    {
        std::string name;
        std::uint64_t start;
        std::uint64_t profile;
    };
    const std::vector<Golden> golden = {
        {"pchase", 1'800'000, 0x1f765277c0b59870ull},
        {"swim", 11'700'000, 0x820c1d95a7b2ed9bull},
        {"gzip", 7'800'000, 0x1249b9a18c255869ull},
    };
    for (const auto &g : golden) {
        const SpecProgram prog = specProgram(g.name);
        const BbvProfile profile =
            collectBbv(prog, prog.nominal_length, 100'000);
        EXPECT_EQ(profileDigest(profile), g.profile)
            << g.name << ": got 0x" << std::hex << profileDigest(profile);
        // findSimPoint's choice, from the profile already in hand.
        EXPECT_EQ(chooseSimPoint(profile, 4).start_instruction, g.start)
            << g.name;
    }
}

// --- Fast-forward equivalence ---------------------------------------
//
// skip() and collectBbv fast-forward whole blocks without building
// records; everything after them must be exactly what a next() loop
// leaves behind.

namespace
{

/** What a generator shows after skipping to some instruction n: the
 *  image there, then the next window of records, the image and
 *  emitted() after them. */
struct SkipState
{
    std::uint64_t image_at_n = 0;
    std::uint64_t records = 0;
    std::uint64_t image_after = 0;
    std::uint64_t emitted = 0;

    bool operator==(const SkipState &) const = default;
};

constexpr std::uint64_t skip_window = 20'000;

/** SkipState at every n of @p ns (ascending), from one next() loop. */
std::vector<SkipState>
referenceSkipStates(const SpecProgram &prog,
                    const std::vector<std::uint64_t> &ns)
{
    std::vector<SkipState> out(ns.size());
    std::vector<Digest> digests(ns.size());
    SpecGenerator gen(prog);
    TraceRecord r;
    const std::uint64_t end = ns.back() + skip_window;
    for (std::uint64_t i = 0; i <= end; ++i) {
        for (std::size_t k = 0; k < ns.size(); ++k) {
            if (i == ns[k])
                out[k].image_at_n = imageDigest(gen);
            if (i == ns[k] + skip_window) {
                out[k].records = digests[k].h;
                out[k].image_after = imageDigest(gen);
                out[k].emitted = gen.emitted();
            }
        }
        if (i == end)
            break;
        gen.next(r);
        for (std::size_t k = 0; k < ns.size(); ++k)
            if (i >= ns[k] && i < ns[k] + skip_window)
                addRecord(digests[k], r);
    }
    return out;
}

/** SkipState of a fresh generator after skip(@p n). */
SkipState
skippedState(const SpecProgram &prog, std::uint64_t n)
{
    SpecGenerator gen(prog);
    gen.skip(n);
    EXPECT_EQ(gen.emitted(), n);
    SkipState s;
    s.image_at_n = imageDigest(gen);
    Digest d;
    TraceRecord r;
    for (std::uint64_t i = 0; i < skip_window; ++i) {
        gen.next(r);
        addRecord(d, r);
    }
    s.records = d.h;
    s.image_after = imageDigest(gen);
    s.emitted = gen.emitted();
    return s;
}

/** collectBbv as a plain next() loop: the reference the
 *  fast-forwarded profile must equal. */
BbvProfile
referenceBbv(const SpecProgram &prog, std::uint64_t total,
             std::uint64_t interval)
{
    BbvProfile profile;
    profile.interval_length = interval;
    SpecGenerator gen(prog);
    TraceRecord rec;
    std::vector<std::uint64_t> counts(bbv_dims);
    for (std::uint64_t iv = 0; iv < total / interval; ++iv) {
        std::fill(counts.begin(), counts.end(), 0);
        for (std::uint64_t i = 0; i < interval; ++i) {
            gen.next(rec);
            ++counts[rec.bb % bbv_dims];
        }
        std::vector<float> vec(bbv_dims);
        for (std::size_t d = 0; d < bbv_dims; ++d)
            vec[d] = static_cast<float>(counts[d]) /
                     static_cast<float>(interval);
        profile.vectors.push_back(std::move(vec));
    }
    return profile;
}

} // namespace

TEST(FastForward, SkipMatchesNextLoopForEveryProgram)
{
    for (const auto &name : allProgramNames()) {
        const SpecProgram prog = specProgram(name);
        const std::uint64_t seg = prog.segments[0].instructions;
        // Block-sized edges, both sides of the first segment
        // boundary, and a long skip across several phases.
        const std::vector<std::uint64_t> ns = {
            0, 1, 49, 50, 51, seg - 1, seg + 1, 2'500'003};
        ASSERT_TRUE(std::is_sorted(ns.begin(), ns.end())) << name;
        const std::vector<SkipState> want =
            referenceSkipStates(prog, ns);
        for (std::size_t k = 0; k < ns.size(); ++k)
            EXPECT_TRUE(skippedState(prog, ns[k]) == want[k])
                << name << " skip(" << ns[k] << ")";
    }
}

TEST(FastForward, SkipAfterNextContinuesExactly)
{
    // skip() from the middle of a block handed out by next(), then
    // again from the middle of the block its own tail began.
    SpecGenerator a(specProgram("pchase")), b(specProgram("pchase"));
    TraceRecord ra, rb;
    for (int i = 0; i < 7; ++i) {
        a.next(ra);
        b.next(rb);
    }
    a.skip(100'001);
    a.skip(99'999);
    for (int i = 0; i < 200'000; ++i)
        b.next(rb);
    for (int i = 0; i < 1000; ++i) {
        a.next(ra);
        b.next(rb);
        Digest da, db;
        addRecord(da, ra);
        addRecord(db, rb);
        ASSERT_EQ(da.h, db.h) << i;
    }
    EXPECT_EQ(a.emitted(), b.emitted());
    EXPECT_EQ(imageDigest(a), imageDigest(b));
}

TEST(FastForward, CollectBbvMatchesNextLoop)
{
    // 3M instructions cross several phases of each program; 997 does
    // not divide it, so the last partial interval is dropped.
    for (const char *name : {"gzip", "swim", "pchase", "gcc"}) {
        const SpecProgram prog = specProgram(name);
        for (const std::uint64_t interval : {997ull, 100'000ull}) {
            const BbvProfile got = collectBbv(prog, 3'000'000, interval);
            const BbvProfile want =
                referenceBbv(prog, 3'000'000, interval);
            EXPECT_EQ(got.interval_length, interval);
            ASSERT_EQ(got.vectors.size(), want.vectors.size())
                << name << " / " << interval;
            std::size_t differing = 0;
            for (std::size_t v = 0; v < got.vectors.size(); ++v)
                differing += std::memcmp(got.vectors[v].data(),
                                         want.vectors[v].data(),
                                         bbv_dims * sizeof(float)) != 0;
            EXPECT_EQ(differing, 0u) << name << " / " << interval;
        }
    }
}

/** @file Unit tests for the trace generator. */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>

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
    SpecGenerator gen(tinyProgram());
    std::vector<TraceRecord> first(1000);
    for (auto &r : first)
        gen.next(r);
    gen.reset();
    TraceRecord r;
    for (const auto &expect : first) {
        gen.next(r);
        ASSERT_EQ(r.pc, expect.pc);
        ASSERT_EQ(r.addr, expect.addr);
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

/** Digest every field of the first @p n records of @p name, then the
 *  generator's image page by page (forEachPage order, as the trace
 *  arena serializes it). */
StreamDigest
streamDigest(const std::string &name, std::uint64_t n)
{
    SpecGenerator gen(specProgram(name));
    Digest rd;
    TraceRecord r;
    for (std::uint64_t i = 0; i < n; ++i) {
        gen.next(r);
        rd.add(r.pc);
        rd.add(r.addr);
        rd.add(r.value);
        rd.add(r.bb);
        rd.add(static_cast<std::uint64_t>(r.op));
        rd.add(r.dep1);
        rd.add(r.dep2);
    }
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
    return {rd.h, id.h};
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

    std::vector<std::string> names = specBenchmarkNames();
    for (const auto &extra : extraBenchmarkNames())
        names.push_back(extra);

    std::ostringstream diff;
    for (const auto &name : names) {
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
    const std::vector<std::pair<std::string, std::uint64_t>> golden = {
        {"pchase", 1'800'000},
        {"swim", 11'700'000},
        {"gzip", 7'800'000},
    };
    for (const auto &[name, start] : golden)
        EXPECT_EQ(findSimPoint(specProgram(name), 100'000, 4)
                      .start_instruction,
                  start)
            << name;
}

/** @file Behavioural unit tests for the correlation/content
 *  prefetchers: Markov, DBCP, TK, TKVC, CDP, TCP, GHB. */

#include <gtest/gtest.h>

#include "core/baseline_config.hh"
#include "mechanisms/cdp.hh"
#include "mechanisms/cdp_sp.hh"
#include "mechanisms/dbcp.hh"
#include "mechanisms/ghb.hh"
#include "mechanisms/markov_prefetch.hh"
#include "mechanisms/tcp.hh"
#include "mechanisms/timekeeping.hh"
#include "mechanisms/timekeeping_victim.hh"
#include "trace/kernels.hh"

using namespace microlib;

namespace
{

struct Rig
{
    BaselineConfig cfg = makeBaseline();
    std::shared_ptr<MemoryImage> image = std::make_shared<MemoryImage>();
    std::unique_ptr<Hierarchy> hier;

    Rig() { hier = std::make_unique<Hierarchy>(cfg.hier, image); }

    void
    attach(CacheMechanism &mech)
    {
        mech.bind(*hier);
        hier->setClient(&mech);
    }
};

} // namespace

TEST(Markov, LearnsRepeatedMissSequence)
{
    Rig rig;
    MechanismConfig mc;
    MarkovPrefetch markov(mc);
    rig.attach(markov);
    // A fixed miss sequence over lines far apart, repeated; after the
    // first round the successors are known and prefetched into the
    // buffer, which then serves the misses.
    const Addr seq[] = {0x10000000, 0x11000000, 0x12000000,
                        0x13000000};
    Cycle t = 100;
    for (int round = 0; round < 6; ++round)
        for (const Addr a : seq)
            t = rig.hier->load(a, 0x400000, t + 2000) + 2000;
    EXPECT_GT(markov.prefetches_issued.value(), 0u);
    EXPECT_GT(markov.side_hits.value(), 0u);
}

TEST(Dbcp, SignatureUpdateDiffersAcrossVariants)
{
    MechanismConfig fixed_cfg;
    MechanismConfig guess_cfg;
    guess_cfg.second_guess = true;
    Dbcp fixed(fixed_cfg), initial(guess_cfg);
    // Without the PC pre-hash, adjacent PCs collide much more; the
    // two variants must produce different signatures.
    EXPECT_NE(fixed.updateSignature(0, 0x400004),
              initial.updateSignature(0, 0x400004));
}

TEST(Dbcp, LearnsDeathSuccession)
{
    Rig rig;
    MechanismConfig mc;
    Dbcp dbcp(mc);
    rig.attach(dbcp);
    // Conflict pair: A dies to B, B dies to A, cyclically with a
    // stable access signature (single PC).
    const Addr a = 0x10000000, b = 0x10008000;
    Cycle t = 100;
    for (int i = 0; i < 30; ++i)
        t = rig.hier->load(i % 2 ? b : a, 0x400000, t + 500) + 500;
    EXPECT_GT(dbcp.prefetches_issued.value(), 0u);
    EXPECT_GT(dbcp.side_hits.value(), 0u);
}

TEST(Timekeeping, QuantizationOnlyInFixedBuild)
{
    MechanismConfig fixed_cfg;
    Timekeeping fixed(fixed_cfg);
    EXPECT_EQ(fixed.quantize(1000), 512u);
    EXPECT_EQ(fixed.quantize(511), 0u);

    MechanismConfig guess_cfg;
    guess_cfg.second_guess = true;
    Timekeeping initial(guess_cfg);
    EXPECT_EQ(initial.quantize(1000), 1000u);
}

TEST(Timekeeping, PrefetchesReplacementOfDeadLine)
{
    Rig rig;
    MechanismConfig mc;
    Timekeeping tk(mc);
    rig.attach(tk);
    const Addr a = 0x10000000, b = 0x10008000; // same L1 set
    Cycle t = 100;
    for (int i = 0; i < 40; ++i) {
        t += 3000; // idle beyond the 1023-cycle death threshold
        rig.hier->load(i % 2 ? b : a, 0x400000, t);
    }
    EXPECT_GT(tk.prefetches_issued.value(), 0u);
    EXPECT_GT(tk.side_hits.value(), 0u);
}

TEST(Timekeeping, TwoWayL1SweepsBothFramesOfASet)
{
    // A 2-way L1D: each sweep walks two frames per set. Three lines
    // per set contend for two ways in sets 0 and 1, in a fixed cycle
    // with idle gaps past the death threshold, so lines die, their
    // replacements are learned and predicted.
    Rig rig;
    rig.cfg.hier.l1d.assoc = 2;
    rig.hier = std::make_unique<Hierarchy>(rig.cfg.hier, rig.image);
    MechanismConfig mc;
    Timekeeping tk(mc);
    rig.attach(tk);
    const Addr way_stride = 512 * 32; // 512 sets of 32-byte lines
    const Addr base = 0x10000000;
    Cycle t = 100;
    for (int round = 0; round < 12; ++round)
        for (Addr set = 0; set < 2; ++set)
            for (Addr k = 0; k < 3; ++k) {
                t += 1500;
                rig.hier->load(base + set * 32 + k * way_stride,
                               0x400000, t);
            }
    EXPECT_GT(tk.prefetches_issued.value(), 0u);
    EXPECT_GT(tk.side_hits.value(), 0u);
    // The counts the divide-indexed implementation produced on this
    // sequence: indexing by mask must not move a single one.
    EXPECT_EQ(tk.table_reads.value(), 68u);
    EXPECT_EQ(tk.table_writes.value(), 68u);
    EXPECT_EQ(tk.prefetches_issued.value(), 11u);
    EXPECT_EQ(tk.side_hits.value(), 11u);
}

TEST(MechanismGeometryDeathTest, TablesMustBePowersOfTwo)
{
    const MechanismConfig mc;
    Dbcp::Params dbcp;
    dbcp.table_entries = 3000 * 8; // 3000 sets
    EXPECT_DEATH(Dbcp(mc, dbcp), "power-of-two number of");
    dbcp = Dbcp::Params{};
    dbcp.table_assoc = 6;
    EXPECT_DEATH(Dbcp(mc, dbcp), "power of two");
    MechanismConfig guess = mc;
    guess.second_guess = true; // halves the table: 3 sets
    dbcp = Dbcp::Params{};
    dbcp.table_entries = 48;
    EXPECT_DEATH(Dbcp(guess, dbcp), "power-of-two number of");

    MarkovPrefetch::Params markov;
    markov.table_entries = 60000;
    EXPECT_DEATH(MarkovPrefetch(mc, markov), "not a power of two");
    markov = MarkovPrefetch::Params{};
    markov.predictions = 5;
    EXPECT_DEATH(MarkovPrefetch(mc, markov), "outside 1..4");

    Timekeeping::Params tk;
    tk.refresh = 500;
    EXPECT_DEATH(Timekeeping(mc, tk), "refresh quantum 500");
    tk = Timekeeping::Params{};
    tk.corr_bytes = 6 * 1024; // 768 entries, 96 sets
    EXPECT_DEATH(Timekeeping(mc, tk), "power-of-two number of");
}

TEST(TimekeepingVictim, FiltersDeadLines)
{
    Rig rig;
    MechanismConfig mc;
    TimekeepingVictim tkvc(mc);
    rig.attach(tkvc);
    const Addr a = 0x10000000, b = 0x10008000;
    // Recently-used A evicted: admitted. Long-idle A evicted:
    // filtered.
    Cycle t = 100;
    rig.hier->load(a, 0x400000, t);
    rig.hier->load(b, 0x400000, t + 50); // A idle 50 < threshold
    EXPECT_EQ(tkvc.admitted.value(), 1u);

    rig.hier->load(a, 0x400000, t + 100); // B evicted, A back
    rig.hier->load(b, 0x400000, t + 50'000); // A idle huge: filtered
    EXPECT_GE(tkvc.filtered.value(), 1u);
}

TEST(Cdp, CandidateFilter)
{
    EXPECT_TRUE(Cdp::candidate(heap_base + 0x1000));
    EXPECT_FALSE(Cdp::candidate(42));                 // small int
    EXPECT_FALSE(Cdp::candidate(heap_base + 0x1001)); // unaligned
    EXPECT_FALSE(Cdp::candidate(0xffffffffffffffffull));
}

TEST(Cdp, PrefetchesPointersInRefilledLines)
{
    Rig rig;
    // Line at A holds a pointer to B.
    const Addr a = 0x10000000, b = 0x14000000;
    rig.image->write(a, b);
    MechanismConfig mc;
    Cdp cdp(mc);
    rig.attach(cdp);
    rig.hier->load(a, 0x400000, 100); // refill scans content
    EXPECT_GE(cdp.pointers_found.value(), 1u);
    EXPECT_TRUE(rig.hier->l2Probe(b));
}

TEST(Cdp, RecursionBoundedByDepth)
{
    Rig rig;
    // Chain a -> b -> c -> d -> e via pointers in line heads.
    const Addr chain[] = {0x10000000, 0x14000000, 0x18000000,
                          0x1c000000, 0x20000000, 0x24000000};
    for (int i = 0; i < 5; ++i)
        rig.image->write(chain[i], chain[i + 1]);
    MechanismConfig mc;
    Cdp cdp(mc);
    rig.attach(cdp);
    rig.hier->load(chain[0], 0x400000, 100);
    // Depth threshold 3: b, c, d prefetched; e must not be.
    EXPECT_TRUE(rig.hier->l2Probe(chain[1]));
    EXPECT_TRUE(rig.hier->l2Probe(chain[2]));
    EXPECT_TRUE(rig.hier->l2Probe(chain[3]));
    EXPECT_FALSE(rig.hier->l2Probe(chain[4]));
}

TEST(CdpSp, CombinesBothEngines)
{
    Rig rig;
    const Addr ptr_line = 0x10000000, target = 0x14000000;
    rig.image->write(ptr_line, target);
    MechanismConfig mc;
    CdpSp combo(mc);
    rig.attach(combo);
    // Pointer side.
    rig.hier->load(ptr_line, 0x400200, 100);
    EXPECT_TRUE(rig.hier->l2Probe(target));
    // Stride side.
    const auto fills_before = rig.hier->l2().prefetch_fills.value();
    Cycle t = 10000;
    for (int i = 0; i < 8; ++i)
        t = rig.hier->load(0x30000000 + i * 256, 0x400abc, t + 50);
    EXPECT_GT(rig.hier->l2().prefetch_fills.value(), fills_before);
    EXPECT_TRUE(rig.hier->l2Probe(0x30000000 + 8 * 256));
}

TEST(Tcp, LearnsTagPatternPerSet)
{
    Rig rig;
    MechanismConfig mc;
    Tcp tcp(mc);
    rig.attach(tcp);
    // Six tags cycling in one L2 set (more than the 4 ways, so every
    // access stays a miss): after one full cycle each pattern
    // (t1,t2)->t3 is known and prefetched.
    const std::uint64_t l2_sets = 1024 * 1024 / (64 * 4);
    const Addr t0 = 0x10000000;
    const Addr stride = l2_sets * 64; // same set, next tag
    Cycle t = 100;
    for (int round = 0; round < 5; ++round)
        for (int k = 0; k < 6; ++k)
            t = rig.hier->load(t0 + k * stride, 0x400000, t + 3000);
    EXPECT_GT(tcp.prefetches_issued.value(), 0u);
}

TEST(Tcp, BufferSizeFollowsConfig)
{
    MechanismConfig big;
    big.tcp_buffer = 128;
    EXPECT_EQ(Tcp(big).queueCapacity(), 128u);

    MechanismConfig small;
    small.tcp_buffer = 1;
    EXPECT_EQ(Tcp(small).queueCapacity(), 1u);

    MechanismConfig guessed;
    guessed.second_guess = true;
    EXPECT_EQ(Tcp(guessed).queueCapacity(), 1u);
}

TEST(Ghb, DetectsConstantStrideInMissStream)
{
    Rig rig;
    MechanismConfig mc;
    Ghb ghb(mc);
    rig.attach(ghb);
    Cycle t = 100;
    // L2 miss stream with constant 64-line stride from one PC. GHB
    // trains on misses only, so after each degree-4 burst the next
    // few accesses hit and the pattern re-syncs — coverage comes in
    // waves, as in the original design.
    for (int i = 0; i < 20; ++i)
        t = rig.hier->load(0x10000000 + i * 4096, 0x400abc, t + 500);
    EXPECT_GE(ghb.prefetches_issued.value(), 8u);
    // A good share of the stream was served by prefetched L2 lines.
    EXPECT_GE(rig.hier->l2().prefetch_used.value(), 4u);
}

TEST(Ghb, ReplaysDeltaPatterns)
{
    Rig rig;
    MechanismConfig mc;
    Ghb ghb(mc);
    rig.attach(ghb);
    // Repeating delta pattern +4096,+8192 per PC.
    Cycle t = 100;
    Addr a = 0x10000000;
    for (int i = 0; i < 12; ++i) {
        a += (i % 2) ? 8192 : 4096;
        t = rig.hier->load(a, 0x400abc, t + 500);
    }
    EXPECT_GT(ghb.chain_walks.value(), 0u);
    EXPECT_GT(ghb.prefetches_issued.value(), 0u);
}

TEST(Ghb, BoundedByRequestQueue)
{
    MechanismConfig mc;
    Ghb::Params p;
    p.request_queue = 4; // Table 3
    Ghb ghb(mc, p);
    const auto hw = ghb.hardware();
    // Tiny structures: total well under a kilobyte besides the GHB.
    std::uint64_t total = 0;
    for (const auto &s : hw)
        total += s.bytes;
    EXPECT_LT(total, 8192u);
}

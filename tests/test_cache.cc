/** @file Unit tests for the detailed cache model. */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/const_memory.hh"

using namespace microlib;

namespace
{

CacheParams
smallCache()
{
    CacheParams p;
    p.name = "t";
    p.size = 1024;
    p.line = 32;
    p.assoc = 2;
    p.ports = 2;
    p.latency = 1;
    return p;
}

MemRequest
read(Addr addr, Cycle when)
{
    MemRequest r;
    r.addr = addr;
    r.kind = AccessKind::DemandRead;
    r.when = when;
    return r;
}

MemRequest
write(Addr addr, Cycle when)
{
    MemRequest r = read(addr, when);
    r.kind = AccessKind::DemandWrite;
    return r;
}

} // namespace

TEST(Cache, HitAfterMiss)
{
    Cache c(smallCache(), nullptr, nullptr);
    c.access(read(0x100, 0));
    c.access(read(0x104, 50)); // same line
    EXPECT_EQ(c.demand_misses.value(), 1u);
    EXPECT_EQ(c.demand_hits.value(), 1u);
}

TEST(Cache, HitLatency)
{
    Cache c(smallCache(), nullptr, nullptr);
    c.access(read(0x100, 0));
    const Cycle done = c.access(read(0x100, 100));
    EXPECT_EQ(done, 101u); // 1-cycle latency
}

TEST(Cache, MissFetchesFromParent)
{
    ConstMemory mem(70);
    Cache c(smallCache(), &mem, nullptr);
    const Cycle done = c.access(read(0x100, 0));
    EXPECT_GT(done, 70u);
    EXPECT_EQ(mem.reads.value(), 1u);
}

TEST(Cache, LruEvictionWithinSet)
{
    // 1024 B / 32 B / 2-way = 16 sets; lines 32*16 apart share a set.
    Cache c(smallCache(), nullptr, nullptr);
    const Addr a = 0x0, b = 0x200, d = 0x400; // same set, 3 lines
    c.access(read(a, 0));
    c.access(read(b, 10));
    c.access(read(d, 20)); // evicts a (LRU)
    EXPECT_FALSE(c.probe(a));
    EXPECT_TRUE(c.probe(b));
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyEvictionWritesBack)
{
    ConstMemory mem(10);
    CacheParams p = smallCache();
    Cache c(p, &mem, nullptr);
    c.access(write(0x0, 0));   // allocate + dirty
    c.access(read(0x200, 10));
    c.access(read(0x400, 20)); // evicts dirty line 0x0
    EXPECT_EQ(c.writebacks.value(), 1u);
    EXPECT_EQ(mem.writes.value(), 1u);
}

TEST(Cache, CleanEvictionSilent)
{
    ConstMemory mem(10);
    Cache c(smallCache(), &mem, nullptr);
    c.access(read(0x0, 0));
    c.access(read(0x200, 10));
    c.access(read(0x400, 20));
    EXPECT_EQ(c.writebacks.value(), 0u);
}

TEST(Cache, SecondAccessRidesInflightFill)
{
    ConstMemory mem(100);
    Cache c(smallCache(), &mem, nullptr);
    const Cycle first = c.access(read(0x100, 0));
    // Second access to the line while its fill is still in flight:
    // no second memory read, and the data is not available before
    // the original fill lands.
    const Cycle second = c.access(read(0x108, 1));
    EXPECT_EQ(mem.reads.value(), 1u);
    EXPECT_GE(second + 2, first);
    EXPECT_EQ(c.delayed_hits.value(), 1u);
}

TEST(Cache, PrefetchInstallsWithBit)
{
    ConstMemory mem(50);
    Cache c(smallCache(), &mem, nullptr);
    MemRequest pf = read(0x100, 0);
    pf.kind = AccessKind::Prefetch;
    c.access(pf);
    EXPECT_TRUE(c.probe(0x100));
    EXPECT_TRUE(c.linePrefetched(0x100));
    EXPECT_EQ(c.prefetch_fills.value(), 1u);

    // First demand use clears the bit and counts as used.
    c.access(read(0x100, 200));
    EXPECT_FALSE(c.linePrefetched(0x100));
    EXPECT_EQ(c.prefetch_used.value(), 1u);
}

TEST(Cache, DemandMergesWithInflightPrefetch)
{
    ConstMemory mem(100);
    Cache c(smallCache(), &mem, nullptr);
    MemRequest pf = read(0x100, 0);
    pf.kind = AccessKind::Prefetch;
    c.access(pf);
    // Demand arrives while the prefetch is still in flight.
    const Cycle done = c.access(read(0x100, 10));
    EXPECT_EQ(mem.reads.value(), 1u); // no duplicate fetch
    EXPECT_GT(done, 10u);
}

TEST(Cache, WritebackRequestMarksDirty)
{
    Cache c(smallCache(), nullptr, nullptr);
    c.access(read(0x100, 0));
    MemRequest wb = read(0x100, 10);
    wb.kind = AccessKind::Writeback;
    c.access(wb);
    // Evict it: must write back (we can't see dirty directly, so use
    // a parent-backed cache).
    ConstMemory mem(10);
    Cache c2(smallCache(), &mem, nullptr);
    c2.access(read(0x100, 0));
    wb.when = 20;
    c2.access(wb);
    c2.access(read(0x300, 30));
    c2.access(read(0x500, 40));
    EXPECT_EQ(c2.writebacks.value(), 1u);
}

TEST(Cache, WritebackMissAllocatesWithoutFetch)
{
    ConstMemory mem(100);
    Cache c(smallCache(), &mem, nullptr);
    MemRequest wb = read(0x100, 0);
    wb.kind = AccessKind::Writeback;
    c.access(wb);
    EXPECT_TRUE(c.probe(0x100));
    EXPECT_EQ(mem.reads.value(), 0u); // full-line write, no fill read
}

TEST(Cache, Invalidate)
{
    Cache c(smallCache(), nullptr, nullptr);
    c.access(read(0x100, 0));
    EXPECT_TRUE(c.probe(0x100));
    c.invalidate(0x100);
    EXPECT_FALSE(c.probe(0x100));
}

namespace
{

/** Client recorder for observing cache events through the sealed
 *  hook shim (the same dispatch path the mechanisms use). */
struct RecordingHooks final : public HierarchyClient
{
    unsigned accesses = 0, misses = 0, evicts = 0, refills = 0;
    bool supply = false; ///< claim misses from the side structure

    void
    cacheAccess(CacheLevel, const MemRequest &, bool hit, bool) override
    {
        ++accesses;
        if (!hit)
            ++misses;
    }
    bool
    cacheMissProbe(CacheLevel, Addr, Cycle, Cycle &extra) override
    {
        extra = 2;
        return supply;
    }
    void cacheEvict(CacheLevel, Addr, bool, Cycle) override { ++evicts; }
    void
    cacheRefill(CacheLevel, Addr, AccessKind, Cycle) override
    {
        ++refills;
    }
};

} // namespace

TEST(Cache, HooksFireOnDemandPath)
{
    ConstMemory mem(10);
    Cache c(smallCache(), &mem, nullptr);
    RecordingHooks hooks;
    c.bindClient(&hooks, CacheLevel::L1D, nullptr);
    c.access(read(0x100, 0));  // miss + refill
    c.access(read(0x100, 50)); // hit
    EXPECT_EQ(hooks.accesses, 2u);
    EXPECT_EQ(hooks.misses, 1u);
    EXPECT_EQ(hooks.refills, 1u);
}

TEST(Cache, SideStructureSuppliesMiss)
{
    ConstMemory mem(100);
    Cache c(smallCache(), &mem, nullptr);
    RecordingHooks hooks;
    hooks.supply = true;
    c.bindClient(&hooks, CacheLevel::L1D, nullptr);
    const Cycle done = c.access(read(0x100, 0));
    // Served by the side structure: latency + extra, and no memory
    // read happened.
    EXPECT_LE(done, 10u);
    EXPECT_EQ(mem.reads.value(), 0u);
    EXPECT_EQ(c.side_fills.value(), 1u);
    EXPECT_TRUE(c.probe(0x100)); // line migrated into the cache
}

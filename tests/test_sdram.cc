/** @file Unit tests for the SDRAM timing model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/sdram.hh"
#include "sim/random.hh"

using namespace microlib;

namespace
{

SdramParams
params()
{
    SdramParams p; // Table 1 defaults
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

} // namespace

TEST(Sdram, FirstAccessActivates)
{
    Sdram dram(params(), nullptr);
    const Cycle done = dram.access(read(0x10000000, 100));
    // activate + tRCD + CL at minimum.
    EXPECT_GE(done, 100u + 30 + 30);
    EXPECT_EQ(dram.activates.value(), 1u);
    EXPECT_EQ(dram.row_empty.value(), 1u);
}

TEST(Sdram, RowHitIsCheaper)
{
    Sdram dram(params(), nullptr);
    const Cycle first = dram.access(read(0x10000000, 100));
    // Same row, later: CAS only.
    const Cycle start2 = first + 10;
    const Cycle second = dram.access(read(0x10000000 + 64 * 4, start2));
    EXPECT_EQ(dram.row_hits.value(), 1u);
    EXPECT_LT(second - start2, first - 100);
}

TEST(Sdram, RowConflictPaysPrecharge)
{
    SdramParams p = params();
    p.scheduler_rows = 1; // plain open-page to expose the conflict
    Sdram dram(p, nullptr);
    dram.access(read(0x10000000, 100));
    // Same bank, different row (jump a full row-group times banks).
    const std::uint64_t row_bytes = p.columns * p.column_bytes;
    const Addr conflict = 0x10000000 + row_bytes * p.banks * 8;
    const Cycle start = 1000;
    const Cycle done = dram.access(read(conflict, start));
    EXPECT_EQ(dram.row_conflicts.value(), 1u);
    EXPECT_GE(done - start, p.ras_precharge + p.ras_to_cas +
                                p.cas_latency);
}

TEST(Sdram, SchedulerKeepsInterleavedRowsHot)
{
    Sdram dram(params(), nullptr); // scheduler_rows = 4
    const std::uint64_t row_bytes =
        params().columns * params().column_bytes;
    const Addr a = 0x10000000;
    const Addr b = a + row_bytes * params().banks * 8; // same bank
    Cycle t = 1000;
    // Alternate two rows of one bank: with row batching both stay
    // warm after the first touches.
    for (int i = 0; i < 10; ++i) {
        dram.access(read(a + 64 * i, t));
        dram.access(read(b + 64 * i, t + 40));
        t += 500;
    }
    EXPECT_GE(dram.row_hits.value(), 12u);
}

TEST(Sdram, QueueBackpressure)
{
    SdramParams p = params();
    p.queue_entries = 2;
    Sdram dram(p, nullptr);
    // Burst of concurrent requests: with a 2-entry queue the third
    // must wait for an earlier completion.
    dram.access(read(0x10000000, 100));
    dram.access(read(0x20000000, 100));
    dram.access(read(0x30000000, 100));
    dram.access(read(0x40000000, 100));
    EXPECT_GT(dram.queue_stalls.value(), 0u);
}

TEST(Sdram, FsbTransferAddsTime)
{
    Bus fsb(BusParams{"fsb", 64, 5});
    Sdram with_bus(params(), &fsb);
    Sdram without(params(), nullptr);
    const Cycle w = with_bus.access(read(0x10000000, 100));
    const Cycle wo = without.access(read(0x10000000, 100));
    EXPECT_GE(w, wo + 5);
}

TEST(Sdram, ScaleTimingsShrinksLatency)
{
    SdramParams p = params();
    p.scaleTimings(0.4);
    EXPECT_EQ(p.cas_latency, 12u); // 30 * 0.4
    EXPECT_LT(p.ras_cycle, params().ras_cycle);
    EXPECT_GE(p.ras_to_ras, 1u);
}

TEST(Sdram, LatencyStatTracksReads)
{
    Sdram dram(params(), nullptr);
    dram.access(read(0x10000000, 100));
    EXPECT_EQ(dram.latency.count(), 1u);
    EXPECT_GT(dram.latency.mean(), 0.0);
}

TEST(Sdram, WritesArePosted)
{
    Sdram dram(params(), nullptr);
    MemRequest wb = read(0x10000000, 100);
    wb.kind = AccessKind::Writeback;
    dram.access(wb);
    EXPECT_EQ(dram.writes.value(), 1u);
    EXPECT_EQ(dram.reads.value(), 0u);
    EXPECT_EQ(dram.latency.count(), 0u); // latency samples reads only
}

class SdramMappingTest : public ::testing::TestWithParam<DramMapping>
{
};

TEST_P(SdramMappingTest, ConsecutiveLinesSpreadOverBanks)
{
    SdramParams p = params();
    p.mapping = GetParam();
    Sdram dram(p, nullptr);
    // Consecutive lines early on: at least two banks activate (line
    // interleave guarantees it; permutation preserves it).
    dram.access(read(0x10000000, 100));
    dram.access(read(0x10000040, 100));
    dram.access(read(0x10000080, 100));
    dram.access(read(0x100000c0, 100));
    EXPECT_GE(dram.activates.value(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Mappings, SdramMappingTest,
    ::testing::Values(DramMapping::LineInterleave,
                      DramMapping::PermutationInterleave));

namespace
{

/** The controller queue as a linear scan (the model's original
 *  form): drop every entry complete by `when`; if the queue is still
 *  full, wait for and remove the earliest completion. */
class ScanQueue
{
  public:
    explicit ScanQueue(unsigned entries) : _entries(entries) {}

    Cycle
    admit(Cycle when)
    {
        std::erase_if(_q, [when](Cycle c) { return c <= when; });
        if (_q.size() < _entries)
            return when;
        auto earliest = std::min_element(_q.begin(), _q.end());
        const Cycle start = std::max(when, *earliest);
        _q.erase(earliest);
        ++stalls;
        return start;
    }

    void retire(Cycle completion) { _q.push_back(completion); }

    std::uint64_t stalls = 0;

  private:
    unsigned _entries;
    std::vector<Cycle> _q;
};

} // namespace

TEST(SdramQueue, HeapAdmitsExactlyWhenTheScanDid)
{
    // Out-of-order presentation times (timestamp algebra presents
    // requests in program order, not time order), bursts that fill
    // the queue, completions far and near.
    for (const unsigned entries : {1u, 2u, 5u, 32u}) {
        for (std::uint32_t seed = 1; seed <= 20; ++seed) {
            Rng rng(seed * 7919 + entries);
            SdramQueue heap(entries);
            ScanQueue scan(entries);
            std::uint64_t heap_stalls = 0;
            Cycle base = 64;
            for (int i = 0; i < 4000; ++i) {
                // Presentation times within 32 cycles either side of
                // a rising base: they step backwards too.
                base += rng.nextBounded(8);
                const Cycle when = base + 32 - rng.nextBounded(64);
                const Cycle start = heap.admit(when);
                ASSERT_EQ(start, scan.admit(when))
                    << "entries " << entries << " seed " << seed
                    << " request " << i;
                if (start != when)
                    ++heap_stalls;
                const Cycle completion = start + rng.nextBounded(400);
                heap.retire(completion);
                scan.retire(completion);
            }
            EXPECT_EQ(heap_stalls, scan.stalls);
            EXPECT_GT(scan.stalls, 0u) << "the sequence never filled "
                                          "the queue";
        }
    }
}

TEST(SdramDeathTest, NonPowerOfTwoGeometryIsFatal)
{
    const auto with = [](auto set) {
        SdramParams p;
        set(p);
        return p;
    };
    EXPECT_DEATH(Sdram(with([](SdramParams &p) { p.rows = 8000; }),
                       nullptr),
                 "powers of two");
    EXPECT_DEATH(Sdram(with([](SdramParams &p) { p.columns = 1000; }),
                       nullptr),
                 "powers of two");
    EXPECT_DEATH(Sdram(with([](SdramParams &p) { p.column_bytes = 6; }),
                       nullptr),
                 "powers of two");
    EXPECT_DEATH(Sdram(with([](SdramParams &p) { p.line_bytes = 48; }),
                       nullptr),
                 "powers of two");
    EXPECT_DEATH(Sdram(with([](SdramParams &p) { p.banks = 3; }),
                       nullptr),
                 "power of two");
    // Powers of two, but no whole line fits in a row.
    EXPECT_DEATH(Sdram(with([](SdramParams &p) { p.columns = 4; }),
                       nullptr),
                 "does not fit");
}

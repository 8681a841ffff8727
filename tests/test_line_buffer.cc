/** @file Unit tests for LineBuffer, the LRU side store behind victim
 *  caches, frequent-value caches and prefetch buffers. */

#include <gtest/gtest.h>

#include <map>

#include "core/mechanism.hh"
#include "sim/random.hh"

using namespace microlib;

namespace
{

/** Reference model: a map of lines with insertion stamps; the victim
 *  is the entry with the smallest stamp. */
class ReferenceBuffer
{
  public:
    ReferenceBuffer(unsigned lines, std::uint64_t line_bytes)
        : _lines(lines), _line_bytes(line_bytes)
    {
    }

    bool
    probeAndTake(Addr a, Cycle now, Cycle &extra)
    {
        const auto it = _entries.find(alignDown(a, _line_bytes));
        if (it == _entries.end())
            return false;
        extra = 1 + (it->second.ready > now ? it->second.ready - now : 0);
        _entries.erase(it);
        return true;
    }

    void
    insert(Addr a, Cycle ready)
    {
        const Addr line = alignDown(a, _line_bytes);
        if (auto it = _entries.find(line); it != _entries.end()) {
            it->second.ready = std::min(it->second.ready, ready);
            it->second.stamp = ++_tick;
            return;
        }
        if (_entries.size() >= _lines) {
            auto victim = _entries.begin();
            for (auto it = _entries.begin(); it != _entries.end(); ++it)
                if (it->second.stamp < victim->second.stamp)
                    victim = it;
            _entries.erase(victim);
            ++_unused_evictions;
        }
        _entries.emplace(line, Entry{ready, ++_tick});
    }

    bool
    contains(Addr a) const
    {
        return _entries.count(alignDown(a, _line_bytes)) > 0;
    }

    std::size_t occupancy() const { return _entries.size(); }
    std::uint64_t unusedEvictions() const { return _unused_evictions; }

  private:
    struct Entry
    {
        Cycle ready;
        std::uint64_t stamp;
    };

    unsigned _lines;
    std::uint64_t _line_bytes;
    std::uint64_t _tick = 0;
    std::uint64_t _unused_evictions = 0;
    std::map<Addr, Entry> _entries;
};

} // namespace

TEST(LineBuffer, HitRemovesAndChargesWait)
{
    LineBuffer buf(2, 32);
    buf.insert(0x1000, 50);
    EXPECT_TRUE(buf.contains(0x101f)); // any byte of the line
    Cycle extra = 0;
    EXPECT_TRUE(buf.probeAndTake(0x1004, 40, extra));
    EXPECT_EQ(extra, 11u); // one access cycle + ten waiting for fill
    EXPECT_FALSE(buf.contains(0x1000));
    EXPECT_EQ(buf.occupancy(), 0u);
}

TEST(LineBuffer, RefreshKeepsEarliestReadyAndMovesToFront)
{
    LineBuffer buf(2, 32);
    buf.insert(0x000, 30);
    buf.insert(0x020, 10);
    buf.insert(0x000, 40);  // refresh: ready stays 30, now most recent
    buf.insert(0x040, 0);   // evicts 0x020, the least recent
    EXPECT_TRUE(buf.contains(0x000));
    EXPECT_FALSE(buf.contains(0x020));
    EXPECT_EQ(buf.unusedEvictions(), 1u);
    Cycle extra = 0;
    ASSERT_TRUE(buf.probeAndTake(0x000, 0, extra));
    EXPECT_EQ(extra, 31u);
}

class LineBufferEquivalence : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(LineBufferEquivalence, MatchesStampLruReference)
{
    const unsigned lines = GetParam();
    constexpr std::uint64_t line_bytes = 64;
    LineBuffer buf(lines, line_bytes);
    ReferenceBuffer ref(lines, line_bytes);
    Rng rng(lines * 7919 + 1);

    // Addresses come from a pool twice the buffer's size and inserts
    // outnumber probes two to one, so the buffer fills: inserts both
    // refresh and evict and probes both hit and miss; unaligned
    // offsets exercise the line alignment.
    const std::uint64_t pool = 2 * lines + 1;
    Cycle now = 0;
    for (int i = 0; i < 200000; ++i) {
        now += rng.nextBounded(3);
        const Addr a = 0x40000000 + rng.nextBounded(pool) * line_bytes +
                       rng.nextBounded(line_bytes);
        switch (rng.nextBounded(4)) {
          case 0:
          case 1: {
            const Cycle ready = now + rng.nextBounded(20);
            buf.insert(a, ready);
            ref.insert(a, ready);
            break;
          }
          case 2: {
            Cycle got = 0, want = 0;
            ASSERT_EQ(buf.probeAndTake(a, now, got),
                      ref.probeAndTake(a, now, want))
                << "op " << i;
            ASSERT_EQ(got, want) << "op " << i;
            break;
          }
          default:
            ASSERT_EQ(buf.contains(a), ref.contains(a)) << "op " << i;
            break;
        }
        ASSERT_EQ(buf.occupancy(), ref.occupancy()) << "op " << i;
        ASSERT_EQ(buf.unusedEvictions(), ref.unusedEvictions())
            << "op " << i;
    }
    EXPECT_GT(ref.unusedEvictions(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LineBufferEquivalence,
                         ::testing::Values(1u, 1024u));

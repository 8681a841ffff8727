/** @file Unit tests for the backfilling resource schedule. */

#include <gtest/gtest.h>

#include <map>

#include "mem/resource.hh"
#include "sim/random.hh"

using namespace microlib;

TEST(Resource, CapacityPerCycle)
{
    ResourceSchedule sched(2);
    EXPECT_EQ(sched.acquire(10), 10u);
    EXPECT_EQ(sched.acquire(10), 10u);
    EXPECT_EQ(sched.acquire(10), 11u); // third acquisition spills
}

TEST(Resource, BackfillBeforeFutureBooking)
{
    ResourceSchedule sched(1);
    // A refill books cycle 100; a demand access at cycle 5 must not
    // wait for it.
    EXPECT_EQ(sched.acquire(100), 100u);
    EXPECT_EQ(sched.acquire(5), 5u);
    EXPECT_EQ(sched.acquire(5), 6u);
    EXPECT_EQ(sched.acquire(100), 101u);
}

TEST(Resource, BookedQuery)
{
    ResourceSchedule sched(3);
    sched.acquire(42);
    sched.acquire(42);
    EXPECT_EQ(sched.booked(42), 2u);
    EXPECT_EQ(sched.booked(43), 0u);
}

TEST(Resource, WindowReuse)
{
    ResourceSchedule sched(1, 64);
    // Fill a cycle, then come back one full window later: the slot
    // must have been recycled.
    EXPECT_EQ(sched.acquire(7), 7u);
    EXPECT_EQ(sched.acquire(7 + 64), 7u + 64);
}

class ResourceCapacitySweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(ResourceCapacitySweep, NeverExceedsCapacity)
{
    const unsigned cap = GetParam();
    ResourceSchedule sched(cap);
    // Issue many acquisitions at the same cycle; each cycle must
    // receive at most `cap` bookings.
    std::map<Cycle, unsigned> counts;
    for (unsigned i = 0; i < cap * 10; ++i)
        ++counts[sched.acquire(1000)];
    for (const auto &kv : counts)
        EXPECT_LE(kv.second, cap);
}

INSTANTIATE_TEST_SUITE_P(Capacities, ResourceCapacitySweep,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Resource, SpillAcrossWordBoundary)
{
    ResourceSchedule sched(1);
    EXPECT_EQ(sched.acquire(63), 63u);
    EXPECT_EQ(sched.acquire(63), 64u); // cycle 63 full: next word
    EXPECT_EQ(sched.booked(63), 1u);
    EXPECT_EQ(sched.booked(64), 1u);
}

TEST(Resource, SaturatedRunLongerThanAWord)
{
    ResourceSchedule sched(2);
    // 400 bookings at cycle 100 saturate cycles 100..299: three
    // 64-cycle words and parts of two more.
    for (Cycle i = 0; i < 400; ++i)
        EXPECT_EQ(sched.acquire(100), 100 + i / 2);
    EXPECT_EQ(sched.acquire(100), 300u);
    EXPECT_EQ(sched.acquire(150), 300u);
    EXPECT_EQ(sched.acquire(299), 301u);
    EXPECT_EQ(sched.booked(300), 2u);
    EXPECT_EQ(sched.booked(301), 1u);
}

TEST(ResourceDeathTest, FutureEpochCollision)
{
    ResourceSchedule sched(1, 64);
    sched.acquire(200);
    // Cycle 10 shares the only word with the live booking at 200,
    // a window ahead: aliasing them must stop the run.
    EXPECT_EXIT(sched.acquire(10), ::testing::ExitedWithCode(1),
                "collides with one a window ahead");
}

TEST(ResourceDeathTest, BadWindowOrCapacity)
{
    EXPECT_EXIT(ResourceSchedule(1, 100), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(ResourceSchedule(1, 32), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(ResourceSchedule(256), ::testing::ExitedWithCode(1),
                "outside 1..255");
    EXPECT_EXIT(ResourceSchedule(0), ::testing::ExitedWithCode(1),
                "outside 1..255");
}

/** Per-cycle reference: one map entry per booked cycle. */
class ReferenceSchedule
{
  public:
    explicit ReferenceSchedule(unsigned capacity) : _capacity(capacity) {}

    Cycle
    acquire(Cycle t)
    {
        for (Cycle c = t;; ++c)
            if (_used[c] < _capacity) {
                ++_used[c];
                return c;
            }
    }

    unsigned
    booked(Cycle t) const
    {
        const auto it = _used.find(t);
        return it == _used.end() ? 0 : it->second;
    }

  private:
    unsigned _capacity;
    std::map<Cycle, unsigned> _used;
};

class ResourceEquivalence
    : public ::testing::TestWithParam<std::tuple<unsigned, Cycle>>
{
};

TEST_P(ResourceEquivalence, MatchesPerCycleReference)
{
    const auto [cap, spread] = GetParam();
    constexpr std::size_t window = 8192;
    ResourceSchedule sched(cap, window);
    ReferenceSchedule ref(cap);
    Rng rng(cap * 1000003 + spread);

    // A slowly advancing "now" with bookings up to `spread` cycles
    // ahead of it (refills booked into the future) and occasional
    // same-cycle bursts that saturate a run of cycles. The offered
    // load stays below capacity, so every live booking remains well
    // inside the window.
    Cycle now = 1000;
    for (int i = 0; i < 20000; ++i) {
        now += rng.nextBounded(4);
        const Cycle t = now + rng.nextBounded(spread + 1);
        const unsigned burst =
            rng.nextBounded(64) == 0 ? 3 * cap : 1;
        for (unsigned b = 0; b < burst; ++b) {
            const Cycle got = sched.acquire(t);
            ASSERT_EQ(got, ref.acquire(t)) << "acquire " << i;
            ASSERT_LT(got - now, window / 2);
        }
        const Cycle probe = now + rng.nextBounded(spread + 64);
        ASSERT_EQ(sched.booked(probe), ref.booked(probe)) << probe;
    }
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndSpreads, ResourceEquivalence,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(Cycle{0}, Cycle{63}, Cycle{500},
                                         Cycle{3000})));

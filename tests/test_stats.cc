/** @file Unit tests for the statistics primitives. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

using namespace microlib;

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 5;
    EXPECT_EQ(c.value(), 6u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AverageBasics)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(2.0);
    a.sample(4.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.sum(), 6.0);
}

TEST(Stats, StatSetLookup)
{
    StatSet set;
    Counter c;
    Average a;
    c += 3;
    a.sample(10.0);
    set.registerCounter("l1.misses", &c);
    set.registerAverage("dram.latency", &a);

    EXPECT_TRUE(set.has("l1.misses"));
    EXPECT_FALSE(set.has("l1.hits"));
    EXPECT_DOUBLE_EQ(set.get("l1.misses"), 3.0);
    EXPECT_DOUBLE_EQ(set.get("dram.latency"), 10.0);
}

TEST(Stats, StatSetNamesSorted)
{
    StatSet set;
    Counter c1, c2;
    set.registerCounter("zeta", &c1);
    set.registerCounter("alpha", &c2);
    const auto names = set.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
}

TEST(Stats, StatSetTracksLiveValues)
{
    StatSet set;
    Counter c;
    set.registerCounter("x", &c);
    EXPECT_DOUBLE_EQ(set.get("x"), 0.0);
    c += 7;
    EXPECT_DOUBLE_EQ(set.get("x"), 7.0); // registry reads through
}

TEST(Stats, DumpFormat)
{
    StatSet set;
    Counter c;
    c += 2;
    set.registerCounter("a.b", &c);
    std::ostringstream os;
    set.dump(os);
    EXPECT_EQ(os.str(), "a.b = 2\n");
}

/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "sim/random.hh"
#include "trace/spec_suite.hh"

using namespace microlib;

TEST(Random, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    unsigned same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3u);
}

TEST(Random, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Random, BoundedCoversRange)
{
    Rng rng(7);
    std::vector<int> seen(8, 0);
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBounded(8)];
    for (int count : seen)
        EXPECT_GT(count, 800); // roughly uniform
}

TEST(Random, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Random, GeometricMeanApproximately)
{
    Rng rng(11);
    const double target = 5.0;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(target));
    EXPECT_NEAR(sum / n, target, 0.5);
}

TEST(Random, GeometricNeverZero)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i)
        EXPECT_GE(rng.nextGeometric(1.5), 1u);
}

class RandomChanceTest : public ::testing::TestWithParam<double>
{
};

TEST_P(RandomChanceTest, ChanceMatchesProbability)
{
    const double p = GetParam();
    Rng rng(17);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(p) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, p, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Probabilities, RandomChanceTest,
                         ::testing::Values(0.0, 0.1, 0.35, 0.5, 0.85,
                                           1.0));

// --- Rng::Geometric: the table must reproduce the formula exactly ---

namespace
{

/** An independent copy of nextGeometric(mean)'s formula at 53-bit
 *  grid point @p x (the denominator hoisted, as it is constant). */
struct ReferenceGeometric
{
    double mean;
    double denom;

    explicit ReferenceGeometric(double m)
        : mean(m), denom(std::log1p(-(1.0 / m)))
    {
    }

    std::uint64_t
    at(std::uint64_t x) const
    {
        if (mean <= 1.0)
            return 1;
        const double u = static_cast<double>(x) * 0x1.0p-53;
        const std::uint64_t v = static_cast<std::uint64_t>(
            std::ceil(std::log1p(-u) / denom));
        return v == 0 ? 1 : v;
    }
};

constexpr std::uint64_t grid = std::uint64_t(1) << 53;

/** Fixed means plus every mean the generator and kernels draw with:
 *  the suite's dep_mean and compute means, and the pointer chases'
 *  payload means (payload_touches + 0.01). */
std::vector<double>
geometricMeans()
{
    std::vector<double> means = {1.0, 1.01, 1.5, 2.0, 3.0};
    for (const SpecProgram &p : specSuite()) {
        means.push_back(p.dep_mean);
        means.push_back((1.0 - p.mem_ratio) / p.mem_ratio + 0.01);
    }
    for (const double touches : {0.2, 0.6, 1.0, 1.2, 1.5, 2.5})
        means.push_back(touches + 0.01);
    std::sort(means.begin(), means.end());
    means.erase(std::unique(means.begin(), means.end()), means.end());
    return means;
}

class GeometricTableTest : public ::testing::TestWithParam<double>
{
};

} // namespace

TEST_P(GeometricTableTest, BreakpointsAreTheFormulasSteps)
{
    const double mean = GetParam();
    const Rng::Geometric g(mean);
    const ReferenceGeometric ref(mean);
    if (mean <= 1.0) {
        EXPECT_TRUE(g.breakpoints().empty());
        return;
    }
    const std::vector<std::uint64_t> breaks = g.breakpoints();
    ASSERT_FALSE(breaks.empty());
    for (std::size_t i = 0; i < breaks.size(); ++i) {
        // T_k is the smallest grid point whose draw exceeds k.
        const std::uint64_t k = i + 1;
        EXPECT_GT(ref.at(breaks[i]), k) << "T_" << k;
        EXPECT_LE(ref.at(breaks[i] - 1), k) << "T_" << k;
    }
}

TEST_P(GeometricTableTest, MatchesFormulaAroundEveryBreakpoint)
{
    const double mean = GetParam();
    if (mean <= 1.0)
        GTEST_SKIP() << "no breakpoints for mean <= 1";
    const Rng::Geometric g(mean);
    const ReferenceGeometric ref(mean);
    std::uint64_t mismatches = 0;
    for (const std::uint64_t t : g.breakpoints()) {
        const std::uint64_t lo = t > 4096 ? t - 4096 : 0;
        const std::uint64_t hi = std::min(t + 4096, grid - 1);
        for (std::uint64_t x = lo; x <= hi; ++x)
            mismatches += g.at(x) != ref.at(x);
    }
    // The tail beyond the last breakpoint, and the very top.
    const std::uint64_t last = g.breakpoints().back();
    Rng rng(5);
    for (int i = 0; i < 100'000; ++i) {
        const std::uint64_t x = last + rng.nextBounded(grid - last);
        mismatches += g.at(x) != ref.at(x);
    }
    for (std::uint64_t x = grid - 4096; x < grid; ++x)
        mismatches += g.at(x) != ref.at(x);
    EXPECT_EQ(mismatches, 0u);
}

TEST_P(GeometricTableTest, MatchesFormulaOnRandomDraws)
{
    const double mean = GetParam();
    const Rng::Geometric g(mean);
    const ReferenceGeometric ref(mean);
    // The table against the reference formula, grid point by grid
    // point...
    Rng rng(23);
    std::uint64_t mismatches = 0;
    for (int i = 0; i < 10'000'000; ++i) {
        const std::uint64_t x = rng.next() >> 11;
        if (mean > 1.0)
            mismatches += g.at(x) != ref.at(x);
    }
    EXPECT_EQ(mismatches, 0u);
    // ...and the two Rng draws step for step, which also pins that
    // both consume the same Rng steps (none for mean <= 1).
    Rng a(29), b(29);
    for (int i = 0; i < 100'000; ++i)
        ASSERT_EQ(a.nextGeometric(g), b.nextGeometric(mean)) << i;
    EXPECT_EQ(a.next(), b.next());
}

INSTANTIATE_TEST_SUITE_P(Means, GeometricTableTest,
                         ::testing::ValuesIn(geometricMeans()));

TEST(Random, GeometricMeanAtMostOneIsOneWithoutADraw)
{
    for (const double mean : {1.0, 0.61, 0.21, 0.0}) {
        const Rng::Geometric g(mean);
        Rng a(31), b(31);
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(a.nextGeometric(g), 1u);
        EXPECT_EQ(a.next(), b.next()) << mean;
    }
}

TEST(Random, SkipGeometricConsumesWhatTheDrawWould)
{
    // The fast-forwarding trace generator stands a skipGeometric for
    // every draw whose value it does not read: the Rng must end up
    // exactly where nextGeometric leaves it, step for step. The table
    // draw equals the formula's, also for a non-finite mean, whose
    // quotient saturates rather than casting out of range.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double mean : {0.0, 0.5, 1.0, 1.5, 3.0, nan, inf}) {
        const Rng::Geometric g(mean);
        Rng drawn(37), skipped(37), formula(37);
        for (int i = 0; i < 1000; ++i) {
            ASSERT_EQ(drawn.nextGeometric(g), formula.nextGeometric(mean))
                << mean << " " << i;
            skipped.skipGeometric(g);
            ASSERT_EQ(drawn.next(), skipped.next()) << mean << " " << i;
            formula.next();
        }
    }
    EXPECT_EQ(Rng(37).nextGeometric(nan),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(Random, SkipGeometricIfStepsOnlyWhenTaken)
{
    // The generator's fast-forward applies random conditions to
    // skipped draws without branching: a taken step must be exactly
    // skipGeometric's, an untaken one no step at all.
    for (const double mean : {0.5, 1.0, 3.0}) {
        const Rng::Geometric g(mean);
        Rng branchy(41), masked(41);
        for (int i = 0; i < 1000; ++i) {
            const bool take = branchy.chance(0.4);
            masked.chance(0.4);
            if (take)
                branchy.skipGeometric(g);
            masked.skipGeometricIf(take, g);
            ASSERT_EQ(branchy.next(), masked.next()) << mean << " " << i;
        }
    }
}

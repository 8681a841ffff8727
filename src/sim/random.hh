/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every stochastic element of the workload generators draws from an
 * explicitly seeded Rng so that traces, SimPoints and therefore every
 * reported number are bit-reproducible across runs and platforms
 * (std::mt19937 distributions are not guaranteed identical across
 * standard library implementations, so we implement our own).
 */

#ifndef MICROLIB_SIM_RANDOM_HH
#define MICROLIB_SIM_RANDOM_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace microlib
{

/**
 * xoshiro256** generator (Blackman & Vigna), seeded via splitmix64.
 *
 * Fast, high-quality, and fully specified: identical sequences on any
 * conforming C++ implementation. The one-step draws are inline: the
 * trace generator makes several per instruction.
 */
class Rng
{
  public:
    class Geometric;

    /** Construct from a 64-bit seed, expanded with splitmix64. */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
        const std::uint64_t t = s[1] << 17;

        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = rotl(s[3], 45);

        return result;
    }

    /** Uniform integer in [0, bound). @p bound must be non-zero. */
    std::uint64_t
    nextBounded(std::uint64_t bound)
    {
        // Lemire-style rejection-free multiply-shift; the tiny modulo
        // bias is irrelevant for workload synthesis.
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform double in [0, 1): a 53-bit grid point times 2^-53. */
    double
    nextDouble()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return nextDouble() < p; }

    /**
     * Geometric-flavoured draw: returns small values most of the time.
     * Used for dependence distances and burst lengths.
     * @param mean approximate mean of the draw (>= 1).
     */
    std::uint64_t nextGeometric(double mean);

    /** The same draw as nextGeometric(mean) for @p g's mean, from a
     *  precomputed table (see Geometric). */
    std::uint64_t nextGeometric(const Geometric &g);

  private:
    std::uint64_t s[4];

    static std::uint64_t splitmix64(std::uint64_t &x);

    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
};

/**
 * A geometric draw of fixed mean, precomputed for hot callers.
 *
 * nextGeometric(mean) maps the 53-bit uniform grid point x behind
 * nextDouble() to ceil(log1p(-u) / log1p(-1/mean)) (at least 1),
 * u = x * 2^-53. That value is a step function of x: breakpoint T_k
 * is the smallest x whose draw exceeds k, found once here by binary
 * search with that same formula. A draw then counts the breakpoints
 * at or below x (integer compares, eight without a branch) and
 * evaluates the formula only when x lies within a guard band around
 * a breakpoint or beyond the last one. log1p is correct to a few ulp, which moves the
 * formula's steps by a few grid points at most, far inside the band:
 * outside it table and formula agree, so a draw returns exactly what
 * nextGeometric(mean) would, consuming the same single Rng step
 * (none for mean <= 1).
 */
class Rng::Geometric
{
  public:
    explicit Geometric(double mean);

    /** The draw for 53-bit uniform grid point @p x (x < 2^53);
     *  mean must exceed 1 (nextGeometric() handles mean <= 1). */
    std::uint64_t
    at(std::uint64_t x) const
    {
        // k = breakpoints at or below x. The first block is counted
        // without branches (the draws are unpredictable); only a draw
        // past all of it scans on. Entries past the last breakpoint
        // are 2^53, above every x.
        const std::uint64_t *t = _breaks.data();
        std::size_t k = 0;
        for (std::size_t i = 0; i < scan_block; ++i)
            k += x >= t[i];
        if (k == scan_block)
            while (x >= t[k])
                ++k;
        if (k == _count || t[k] - x <= guard ||
            (k > 0 && x - t[k - 1] < guard))
            return formula(x);
        return k + 1;
    }

    /** Breakpoints T_1, T_2, ... (none for mean <= 1). */
    std::vector<std::uint64_t>
    breakpoints() const
    {
        return {_breaks.begin(), _breaks.begin() + _count};
    }

  private:
    friend class Rng;

    /** Half-width of the guard band, in grid points. */
    static constexpr std::uint64_t guard = std::uint64_t(1) << 20;
    /** Breakpoints counted branch-free by every draw. */
    static constexpr std::size_t scan_block = 8;

    double _denom; ///< log1p(-1/mean)
    /** T_1 .. T_count, then 2^53 up to at least scan_block + 1
     *  entries; empty iff mean <= 1. */
    std::vector<std::uint64_t> _breaks;
    std::size_t _count = 0;

    /** nextGeometric's formula at grid point @p x. */
    std::uint64_t formula(std::uint64_t x) const;
};

inline std::uint64_t
Rng::nextGeometric(const Geometric &g)
{
    if (g._breaks.empty())
        return 1;
    return g.at(next() >> 11);
}

} // namespace microlib

#endif // MICROLIB_SIM_RANDOM_HH

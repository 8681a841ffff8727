#include "sim/random.hh"

#include <algorithm>
#include <cmath>

namespace microlib
{

namespace
{

/** Grid points behind nextDouble(): x in [0, 2^53). */
constexpr std::uint64_t grid = std::uint64_t(1) << 53;

/** Inverse CDF of a geometric distribution with support {1, 2, ...}
 *  at u = x * 2^-53, given denom = log1p(-p). */
std::uint64_t
geometricAt(std::uint64_t x, double denom)
{
    const double u = static_cast<double>(x) * 0x1.0p-53;
    const std::uint64_t v =
        static_cast<std::uint64_t>(std::ceil(std::log1p(-u) / denom));
    return v == 0 ? 1 : v;
}

} // namespace

std::uint64_t
Rng::splitmix64(std::uint64_t &x)
{
    std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    for (auto &word : s)
        word = splitmix64(x);
}

std::uint64_t
Rng::nextGeometric(double mean)
{
    if (mean <= 1.0)
        return 1;
    const double p = 1.0 / mean;
    return geometricAt(next() >> 11, std::log1p(-p));
}

Rng::Geometric::Geometric(double mean)
    : _denom(std::log1p(-(1.0 / mean)))
{
    if (mean <= 1.0)
        return;
    // Tabulate until the tail beyond the last breakpoint is under
    // 2^-13 of the draws (or 64 entries); the tail uses the formula.
    constexpr std::size_t max_breaks = 64;
    constexpr std::uint64_t tail = std::uint64_t(1) << 40;
    // A NaN or infinite denominator has no steps: every draw then
    // takes the formula, as nextGeometric(mean) would.
    const bool steps = std::isfinite(_denom) && _denom < 0.0;
    std::uint64_t lo = 0;
    for (std::uint64_t k = 1; steps && k <= max_breaks; ++k) {
        // Smallest x in [lo, 2^53) whose draw exceeds k; 2^53 if none.
        std::uint64_t hi = grid;
        if (formula(lo) > k) {
            hi = lo;
        } else {
            while (hi - lo > 1) {
                const std::uint64_t mid = lo + (hi - lo) / 2;
                if (formula(mid) > k)
                    hi = mid;
                else
                    lo = mid;
            }
        }
        if (hi == grid)
            break;
        _breaks.push_back(hi);
        lo = hi;
        if (grid - hi < tail)
            break;
    }
    _count = _breaks.size();
    _breaks.resize(std::max(_count + 1, scan_block + 1), grid);
}

std::uint64_t
Rng::Geometric::formula(std::uint64_t x) const
{
    return geometricAt(x, _denom);
}

} // namespace microlib

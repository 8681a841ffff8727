#include "mem/replacement.hh"

#include <bit>

#include "sim/logging.hh"

namespace microlib
{

LruState::LruState(std::size_t sets, std::size_t ways)
    : _sets(sets), _ways(ways), _stamps(sets * ways, 0)
{
    if (sets == 0 || ways == 0)
        fatal("LruState needs non-zero geometry");
    if (ways > 64)
        fatal("LruState supports at most 64 ways (occupancy masks)");
}

std::size_t
LruState::victim(std::size_t set, std::uint64_t valid_mask) const
{
    // Invalid way first: the lowest zero bit, found in one
    // instruction instead of a scan.
    const auto w = static_cast<std::size_t>(std::countr_one(valid_mask));
    if (w < _ways)
        return w;
    return lruWay(set);
}

std::size_t
LruState::lruWay(std::size_t set) const
{
    std::size_t best = 0;
    std::uint64_t best_stamp = _stamps[set * _ways];
    for (std::size_t w = 1; w < _ways; ++w) {
        const std::uint64_t s = _stamps[set * _ways + w];
        if (s < best_stamp) {
            best_stamp = s;
            best = w;
        }
    }
    return best;
}

} // namespace microlib

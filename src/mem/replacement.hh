/**
 * @file
 * Replacement policy state for set-associative arrays.
 *
 * Both the caches and several mechanism side structures (victim
 * caches, correlation tables) need LRU bookkeeping; this class keeps
 * it in one place and one test target.
 */

#ifndef MICROLIB_MEM_REPLACEMENT_HH
#define MICROLIB_MEM_REPLACEMENT_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace microlib
{

/**
 * LRU state for an array of sets. Each way holds a last-use stamp;
 * the victim is the smallest stamp among valid ways, preferring
 * invalid ways first. At most 64 ways per set: occupancy travels as
 * a bit mask so the cache's miss path never heap-allocates (the old
 * std::vector<bool> parameter cost one allocation per install).
 */
class LruState
{
  public:
    LruState(std::size_t sets, std::size_t ways);

    /** Mark (set, way) used at logical time (an internal sequence). */
    void
    touch(std::size_t set, std::size_t way)
    {
        _stamps[set * _ways + way] = ++_tick;
    }

    /** Way to evict in @p set. Bit w of @p valid_mask is set iff way
     *  w holds a valid line; bits at and above ways() must be zero. */
    std::size_t victim(std::size_t set,
                       std::uint64_t valid_mask) const;

    /** Least-recently-used way assuming all ways valid. */
    std::size_t lruWay(std::size_t set) const;

    std::size_t sets() const { return _sets; }
    std::size_t ways() const { return _ways; }

  private:
    std::size_t _sets;
    std::size_t _ways;
    std::uint64_t _tick = 0;
    std::vector<std::uint64_t> _stamps; // sets x ways
};

} // namespace microlib

#endif // MICROLIB_MEM_REPLACEMENT_HH

/**
 * @file
 * Per-cycle resource schedule with backfill.
 *
 * Timestamp-algebra models present requests in program order, but the
 * timestamps themselves are not monotonic: a refill may book a cache
 * port far in the future while the next demand access wants a port
 * *now*. A single next-free timestamp would starve the earlier
 * request behind the later booking; this schedule instead tracks how
 * many acquisitions landed on each cycle (over a sliding window) so a
 * request can claim any gap where capacity remains — which is what
 * pipelined ports do in hardware.
 *
 * Layout: the window is a ring of 64-cycle words. Each word holds the
 * epoch of the 64 cycles it currently describes, a per-cycle booking
 * count and a "cycle full" bit mask, so the first cycle with spare
 * capacity is one count-trailing-zeros away and a saturated run is
 * skipped 64 cycles at a time. The default 8192-cycle window is 128
 * words, 10 KiB per cache or bus.
 *
 * Window invariant: every booking lands within `window` cycles of
 * every other booking still live in the schedule. A word is reused
 * for a later epoch once all of its cycles lie a full window in the
 * past; a booking whose word already holds a *later* epoch would
 * alias two distinct cycles, so it is a fatal error, never a silent
 * overwrite. The window must be a power of two of at least 64 cycles
 * and the capacity at most 255 acquisitions per cycle (the per-cycle
 * count is one byte).
 */

#ifndef MICROLIB_MEM_RESOURCE_HH
#define MICROLIB_MEM_RESOURCE_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace microlib
{

/** Sliding-window cycle-capacity schedule. */
class ResourceSchedule
{
  public:
    /** Largest capacity_per_cycle (the per-cycle count is a byte). */
    static constexpr unsigned max_capacity = 255;

    /**
     * @param capacity_per_cycle simultaneous acquisitions per cycle,
     *        1..max_capacity
     * @param window how far apart bookings may be without aliasing,
     *        in cycles; a power of two >= 64 that must exceed the
     *        largest latency spread between live bookings
     */
    explicit ResourceSchedule(unsigned capacity_per_cycle,
                              std::size_t window = 8192);

    /** Book the first cycle >= @p t with spare capacity. The common
     *  case, where t's word is current and has a spare slot at or
     *  after t, is inline; everything else takes acquireSlow(). */
    Cycle
    acquire(Cycle t)
    {
        const std::uint64_t epoch = (t >> word_shift) + 1;
        Word &w = _words[epoch & _word_mask];
        const std::uint64_t spare =
            ~w.full & (~std::uint64_t{0} << (t & (word_cycles - 1)));
        if (w.epoch != epoch || spare == 0) [[unlikely]]
            return acquireSlow(t);
        return book(w, epoch,
                    static_cast<unsigned>(std::countr_zero(spare)));
    }

    /** Bookings currently recorded for cycle @p t (for tests). */
    unsigned booked(Cycle t) const;

    unsigned capacity() const { return _capacity; }

  private:
    static constexpr unsigned word_shift = 6;
    static constexpr Cycle word_cycles = Cycle{1} << word_shift;

    /** 64 consecutive cycles: cycle (epoch - 1) * 64 + i is slot i. */
    struct Word
    {
        std::uint64_t epoch = 0;   ///< (cycle >> 6) + 1; 0 = unused
        std::uint64_t full = 0;    ///< bit i: slot i is at capacity
        std::uint8_t used[word_cycles] = {};
    };

    /** Take one acquisition of slot @p i of @p w (holding @p epoch). */
    Cycle
    book(Word &w, std::uint64_t epoch, unsigned i)
    {
        if (++w.used[i] == _capacity)
            w.full |= std::uint64_t{1} << i;
        return ((epoch - 1) << word_shift) | i;
    }

    /** acquire() when t's word is stale or has no spare slot at or
     *  after t: renews stale words and walks forward a word at a
     *  time. */
    Cycle acquireSlow(Cycle t);

    unsigned _capacity;
    std::uint64_t _word_mask;      ///< words in the ring - 1
    std::vector<Word> _words;
};

} // namespace microlib

#endif // MICROLIB_MEM_RESOURCE_HH

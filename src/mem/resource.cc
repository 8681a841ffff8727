#include "mem/resource.hh"

#include <bit>
#include <cstring>

#include "sim/logging.hh"

namespace microlib
{

ResourceSchedule::ResourceSchedule(unsigned capacity_per_cycle,
                                   std::size_t window)
    : _capacity(capacity_per_cycle), _word_mask(window / word_cycles - 1),
      _words(window / word_cycles)
{
    if (capacity_per_cycle == 0 || capacity_per_cycle > max_capacity)
        fatal("ResourceSchedule capacity ", capacity_per_cycle,
              " is outside 1..", max_capacity);
    if (window < word_cycles || !isPowerOfTwo(window))
        fatal("ResourceSchedule window ", window,
              " must be a power of two of at least ", word_cycles);
}

Cycle
ResourceSchedule::acquireSlow(Cycle t)
{
    // Slots below t in its first word are not candidates.
    std::uint64_t from = ~std::uint64_t{0} << (t & (word_cycles - 1));
    for (std::uint64_t epoch = (t >> word_shift) + 1;; ++epoch) {
        Word &w = _words[epoch & _word_mask];
        if (w.epoch != epoch) {
            if (w.epoch > epoch)
                fatal("ResourceSchedule: a booking at cycle ",
                      (epoch - 1) << word_shift,
                      " collides with one a window ahead (window ",
                      _words.size() * word_cycles, " cycles)");
            // Stale or unused word: every slot is free again.
            w.epoch = epoch;
            w.full = 0;
            std::memset(w.used, 0, sizeof(w.used));
        }
        if (const std::uint64_t spare = ~w.full & from)
            return book(w, epoch,
                        static_cast<unsigned>(std::countr_zero(spare)));
        from = ~std::uint64_t{0};
    }
}

unsigned
ResourceSchedule::booked(Cycle t) const
{
    const std::uint64_t epoch = (t >> word_shift) + 1;
    const Word &w = _words[epoch & _word_mask];
    return w.epoch == epoch ? w.used[t & (word_cycles - 1)] : 0;
}

} // namespace microlib

/**
 * @file
 * Functional memory image.
 *
 * MicroLib's OoOSysC model "actually performs all computations" so its
 * caches can see real data values; this class provides the equivalent
 * for our trace-driven pipeline. Workload generators build their data
 * structures (linked lists, tables, arrays) in the image; loads read
 * real values, stores update them, and the hierarchy hands mechanisms
 * the true cache-line contents on refill (Content-Directed Prefetching
 * scans those words for pointers, the Frequent Value Cache compresses
 * them).
 *
 * Storage is sparse (4 KB pages, word granularity). Reads of untouched
 * words return a deterministic per-address hash so behaviour is
 * reproducible without initializing the full footprint.
 */

#ifndef MICROLIB_TRACE_MEMORY_IMAGE_HH
#define MICROLIB_TRACE_MEMORY_IMAGE_HH

#include <array>
#include <functional>
#include <memory>
#include <vector>

#include "sim/types.hh"

namespace microlib
{

/**
 * Sparse word-granular memory with deterministic default contents.
 *
 * Pages live in stable heap allocations, found through an
 * open-addressing hash table of (page index, page) slots: a read is a
 * multiply, a probe or two and a mask test, with no mutable state, so
 * simulation threads may share one image through a
 * shared_ptr<const MemoryImage>.
 */
class MemoryImage
{
  public:
    static constexpr std::uint64_t page_bytes = 4096;
    static constexpr std::uint64_t words_per_page = page_bytes / 8;

    MemoryImage();
    /** Deep copy: the copy owns its own pages. */
    MemoryImage(const MemoryImage &other);
    MemoryImage &operator=(const MemoryImage &) = delete;

    /** Read the 64-bit word containing @p addr (addr need not be
     *  aligned; it is truncated to the enclosing word). */
    Word
    read(Addr addr) const
    {
        return wordIn(find(addr / page_bytes), addr);
    }

    /** Write the 64-bit word containing @p addr. */
    void write(Addr addr, Word value);

    /** True iff the word containing @p addr has been written. */
    bool touched(Addr addr) const;

    /** Copy the @p line_bytes-sized line containing @p addr into
     *  @p out (out must hold line_bytes / 8 words). */
    void readLine(Addr addr, std::uint64_t line_bytes,
                  std::vector<Word> &out) const;

    /** Number of allocated pages (footprint tracking for tests). */
    std::size_t allocatedPages() const { return _pages.size(); }

    /** Deterministic content of an untouched word. */
    static Word
    defaultValue(Addr word_addr)
    {
        // splitmix64-style finalizer: deterministic "garbage" values
        // that never look like in-image pointers (top byte forced
        // non-heap).
        std::uint64_t z = word_addr + 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        z ^= z >> 31;
        return z | 0xff00000000000000ull;
    }

    /**
     * Visit every allocated page in ascending page-index order as
     * (page_index, words[words_per_page], mask[words_per_page/64]).
     * The deterministic order is what makes image serialization
     * byte-stable (the trace arena writes pages through this).
     */
    void forEachPage(
        const std::function<void(Addr, const Word *,
                                 const std::uint64_t *)> &fn) const;

    /**
     * Install a whole page at @p page_index from raw words + written
     * mask — the deserialization inverse of forEachPage(). Replaces
     * any existing page.
     */
    void restorePage(Addr page_index, const Word *words,
                     const std::uint64_t *mask);

  private:
    struct Page
    {
        std::array<Word, words_per_page> words{};
        std::array<std::uint64_t, words_per_page / 64> written_mask{};
    };

    /** One hash-table slot; page == nullptr marks it empty. */
    struct Slot
    {
        Addr index = 0;
        Page *page = nullptr;
    };

    /** Power-of-two slot table, at most half full. */
    std::vector<Slot> _slots;
    /** 64 - log2(_slots.size()): home() keeps the product's top bits. */
    unsigned _shift = 0;
    /** The pages, in allocation order. */
    std::vector<std::unique_ptr<Page>> _pages;

    std::size_t
    home(Addr page_index) const
    {
        // Fibonacci hashing: nearby page indices spread out.
        return static_cast<std::size_t>(
            (page_index * 0x9e3779b97f4a7c15ull) >> _shift);
    }

    /** The page holding @p page_index, or null. */
    Page *
    find(Addr page_index) const
    {
        for (std::size_t i = home(page_index);;
             i = (i + 1) & (_slots.size() - 1)) {
            const Slot &slot = _slots[i];
            if (!slot.page || slot.index == page_index)
                return slot.page;
        }
    }

    /** The word at @p addr given its page (null: untouched). */
    static Word
    wordIn(const Page *page, Addr addr)
    {
        const std::size_t idx = (addr % page_bytes) / 8;
        if (page && (page->written_mask[idx / 64] >> (idx % 64)) & 1)
            return page->words[idx];
        return defaultValue(addr & ~Addr(7));
    }

    /** The page holding @p page_index, allocated zeroed if absent. */
    Page &pageFor(Addr page_index);
    void insert(Addr page_index, Page *page);
};

} // namespace microlib

#endif // MICROLIB_TRACE_MEMORY_IMAGE_HH

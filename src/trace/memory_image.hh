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
#include <span>
#include <vector>

#include "sim/types.hh"

namespace microlib
{

/**
 * Sparse word-granular memory with deterministic default contents.
 *
 * Pages are found through an open-addressing hash table of
 * (page index, page) slots: a read is a multiply, a probe or two and
 * a mask test, with no mutable state, so simulation threads may share
 * one image through a shared_ptr<const MemoryImage>.
 *
 * A page is either *owned* (a stable heap allocation of this image)
 * or *borrowed*: borrow() builds a read-only image whose slots point
 * straight at pages stored elsewhere (a trace-arena mapping), and
 * which holds that storage alive itself. A borrowed image is only
 * ever handed out const, so nothing writes through a borrowed page;
 * copying one yields an owned, writable image.
 */
class MemoryImage
{
  public:
    static constexpr std::uint64_t page_bytes = 4096;
    static constexpr std::uint64_t words_per_page = page_bytes / 8;

    /** One page: its words, then the mask of written words. */
    struct Page
    {
        std::array<Word, words_per_page> words{};
        std::array<std::uint64_t, words_per_page / 64> written_mask{};
    };

    /** A page as the trace arena stores it: its index, then the page.
     *  An arena file's page section is an array of these, so a mapped
     *  file's pages can be borrowed in place. */
    struct StoredPage
    {
        std::uint64_t index;
        Page page;
    };

    /**
     * A read-only image over the stored pages @p pages[0, n), where
     * n = @p indices.size() and @p indices[i] is the index stored in
     * @p pages[i], without copying them: the slots point into
     * @p pages, and the image keeps @p backing (the storage holding
     * them) alive. Building the table reads only @p indices, never a
     * stored page, so a page of a mapped file stays unread until a
     * simulation reads it. Indices must be distinct — the trace
     * arena checks they strictly ascend while it collects them.
     */
    static std::shared_ptr<const MemoryImage>
    borrow(const StoredPage *pages, std::span<const Addr> indices,
           std::shared_ptr<const void> backing);

    MemoryImage();
    /** Deep copy: the copy owns its own pages, borrowed or not. */
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

    /** Number of pages, owned or borrowed. */
    std::size_t allocatedPages() const { return _pages.size() + _borrowed; }

    /** Number of pages this image allocated itself. */
    std::size_t ownedPages() const { return _pages.size(); }

    /** Heap bytes this image holds: owned pages and the slot table
     *  (borrowed pages belong to their backing). */
    std::size_t
    ownedBytes() const
    {
        return _pages.size() * sizeof(Page) +
               _slots.size() * sizeof(Slot);
    }

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

  private:
    /** One hash-table slot; page == nullptr marks it empty. */
    struct Slot
    {
        Addr index = 0;
        const Page *page = nullptr;
    };

    /** An empty image of 2^@p log2_slots slots. */
    explicit MemoryImage(unsigned log2_slots);

    /** Power-of-two slot table, at most half full. */
    std::vector<Slot> _slots;
    /** 64 - log2(_slots.size()): home() keeps the product's top bits. */
    unsigned _shift = 0;
    /** The owned pages, in allocation order. */
    std::vector<std::unique_ptr<Page>> _pages;
    /** Number of borrowed pages (nonzero only in borrow()'s images). */
    std::size_t _borrowed = 0;
    /** Keeps the borrowed pages' storage alive; null when none. */
    std::shared_ptr<const void> _backing;

    std::size_t
    home(Addr page_index) const
    {
        // Fibonacci hashing: nearby page indices spread out.
        return static_cast<std::size_t>(
            (page_index * 0x9e3779b97f4a7c15ull) >> _shift);
    }

    /** The page holding @p page_index, or null. */
    const Page *
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
    void insert(Addr page_index, const Page *page);
};

} // namespace microlib

#endif // MICROLIB_TRACE_MEMORY_IMAGE_HH

/**
 * @file
 * The data-cache mechanism API — the paper's central abstraction.
 *
 * A CacheMechanism plugs into the Hierarchy and observes one or both
 * data-cache levels: demand accesses (with PC and hit/miss outcome),
 * evictions, refills (optionally with line contents for
 * content-directed techniques) and may supply missing lines from side
 * structures (victim caches, prefetch buffers) or issue prefetches
 * through bounded request queues (Table 3's "Request Queue Size").
 *
 * The building blocks below (RequestQueue, LineBuffer) are shared by
 * the twelve published mechanisms and by user-defined ones (see
 * examples/custom_prefetcher.cc).
 */

#ifndef MICROLIB_CORE_MECHANISM_HH
#define MICROLIB_CORE_MECHANISM_HH

#include <memory>
#include <string>
#include <vector>

#include "core/module.hh"
#include "mem/hierarchy.hh"
#include "sim/stats.hh"
#include "sim/types.hh"
#include "trace/memory_image.hh"

namespace microlib
{

/** One SRAM/CAM structure a mechanism adds to the chip; the cost and
 *  power models (Figure 5) consume this inventory. */
struct SramSpec
{
    std::string name;
    std::uint64_t bytes = 0;
    unsigned assoc = 1;     ///< 0 = fully associative (CAM)
    unsigned ports = 1;
};

/** Options that select published-variant behaviour per mechanism. */
struct MechanismConfig
{
    /**
     * Build the mechanism the way a reader would before contacting
     * the authors: the documented wrong guesses (DBCP without PC
     * pre-hashing, half-size table, no confidence decay; TCP with a
     * 1-entry prefetch buffer; TK with an unquantized threshold).
     * Used by the Figure 2/3 validation experiments.
     */
    bool second_guess = false;

    /** TCP prefetch request buffer size (Figure 10 sweeps 1 vs 128). */
    unsigned tcp_buffer = 128;
};

/**
 * Bounded prefetch request queue (timestamp model).
 *
 * Entries represent in-flight prefetches; a new request is dropped
 * when the queue is full at issue time — exactly the behaviour whose
 * undocumented sizing the paper shows can swing results (Fig. 10).
 */
class RequestQueue
{
  public:
    explicit RequestQueue(unsigned capacity);

    /** Prune finished entries; true if a slot is free at @p now. */
    bool hasSlot(Cycle now);

    /** Register an in-flight request completing at @p done. */
    void add(Cycle done);

    unsigned capacity() const { return _capacity; }

  private:
    unsigned _capacity;
    std::vector<Cycle> _inflight;
};

/**
 * Small fully-associative line store with LRU replacement and
 * optional per-line ready times: victim caches, frequent-value
 * caches and prefetch buffers are all instances.
 *
 * Allocation-free after construction: lines live in a fixed slot
 * array threaded on an intrusive LRU list (head = most recent), and
 * a linear-probing index of at least twice as many cells as slots
 * maps a line address to its slot. Deletion shifts later probe-chain
 * cells back, so the index never accumulates tombstones.
 */
class LineBuffer
{
  public:
    LineBuffer(unsigned lines, std::uint64_t line_bytes);

    /**
     * Probe for @p line_addr at @p now. On a hit the entry is
     * removed (the line migrates into the cache) and @p extra is the
     * additional latency: the buffer access itself plus any wait for
     * an in-flight fill.
     */
    bool probeAndTake(Addr line_addr, Cycle now, Cycle &extra);

    /** Insert a line available at @p ready (evicts LRU if full). */
    void insert(Addr line_addr, Cycle ready);

    bool contains(Addr line_addr) const;
    std::size_t occupancy() const { return _size; }
    unsigned capacity() const { return _lines; }
    std::uint64_t lineBytes() const { return _line_bytes; }

    /** Lines evicted without ever being hit (prefetch waste). */
    std::uint64_t unusedEvictions() const { return _unused_evictions; }

  private:
    static constexpr std::uint32_t none = ~std::uint32_t{0};

    struct Slot
    {
        Addr line = 0;
        Cycle ready = 0;
        std::uint32_t prev = none; ///< toward the MRU head
        std::uint32_t next = none; ///< toward the LRU tail; free list
    };

    unsigned _lines;
    std::uint64_t _line_bytes;
    unsigned _line_shift;
    unsigned _index_shift;        ///< 64 - log2(index cells)
    std::uint64_t _index_mask;    ///< index cells - 1
    std::uint64_t _unused_evictions = 0;
    std::size_t _size = 0;
    std::uint32_t _head = none;   ///< most recently inserted/refreshed
    std::uint32_t _tail = none;   ///< least recent: the next victim
    std::uint32_t _free = 0;      ///< free-slot list through Slot::next
    std::vector<Slot> _slots;
    std::vector<std::uint32_t> _index; ///< slot number or `none`

    std::uint64_t home(Addr line) const;
    /** Index cell holding @p line, or the empty cell ending its
     *  probe chain. */
    std::uint64_t cellOf(Addr line) const;
    void unlink(std::uint32_t s);
    void pushFront(std::uint32_t s);
    /** Drop slot @p s from the index at @p cell, the list and the
     *  occupancy, and return it to the free list. */
    void remove(std::uint64_t cell, std::uint32_t s);
};

/** Base class for all data-cache mechanisms. */
class CacheMechanism : public Module, public HierarchyClient
{
  public:
    CacheMechanism(std::string acronym, const MechanismConfig &cfg);

    /** Wire the mechanism to a hierarchy (called once per run). */
    virtual void bind(Hierarchy &hier);

    /** Added hardware structures (cost/power models, Figure 5). */
    virtual std::vector<SramSpec> hardware() const = 0;

    void registerStats(StatSet &stats) const override;

    const MechanismConfig &config() const { return _cfg; }

    // Common activity counters (public for the harnesses).
    Counter table_reads;
    Counter table_writes;
    Counter prefetches_issued;
    Counter prefetches_dropped;
    Counter side_hits;          ///< misses served from side structures

  protected:
    Hierarchy *hier() const { return _hier; }

    Addr l1LineAddr(Addr a) const;
    Addr l2LineAddr(Addr a) const;
    std::uint64_t l1LineBytes() const;
    std::uint64_t l2LineBytes() const;

    /**
     * Issue an L2 prefetch through @p queue; honors queue capacity
     * (dropping when full), skips lines already present, and
     * accounts statistics.
     * @return true if the prefetch was issued.
     */
    bool issueL2Prefetch(RequestQueue &queue, Addr addr, Addr pc,
                         Cycle now);

    /**
     * Issue an L1-side buffer fill through @p queue into @p buffer.
     * @return true if the fetch was issued.
     */
    bool issueBufferFetch(RequestQueue &queue, LineBuffer &buffer,
                          Addr addr, Cycle now);

  private:
    MechanismConfig _cfg;
    Hierarchy *_hier = nullptr;
};

} // namespace microlib

#endif // MICROLIB_CORE_MECHANISM_HH

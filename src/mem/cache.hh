/**
 * @file
 * Detailed pipelined cache model.
 *
 * This is the MicroLib cache the paper validates against SimpleScalar
 * (Section 2.2): it differs from the SimpleScalar model in exactly the
 * four documented ways, each controlled by a realism flag so the
 * Figure 1 experiment can toggle them one at a time:
 *
 *  - finite MSHR file (SimpleScalar: unlimited),
 *  - pipeline stalls (a request can delay the next; MSHR busy cycle),
 *  - back-pressure to the LSQ (exposed via delayed acceptance),
 *  - refills consume real cache ports (SimpleScalar: free ports).
 *
 * Mechanisms observe the cache through the sealed CacheHookShim:
 * demand accesses, miss-probes (victim caches and prefetch buffers can
 * supply a missing line from a side structure), evictions and refills
 * dispatch through one inlined shim straight into the bound
 * HierarchyClient — a single indirect call per event instead of the
 * old two-deep virtual chain, and none at all when no mechanism is
 * attached.
 */

#ifndef MICROLIB_MEM_CACHE_HH
#define MICROLIB_MEM_CACHE_HH

#include <deque>
#include <string>
#include <vector>

#include "mem/mshr.hh"
#include "mem/bus.hh"
#include "mem/hierarchy_client.hh"
#include "mem/replacement.hh"
#include "mem/request.hh"
#include "mem/resource.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace microlib
{

class MemoryImage; // trace layer; only the cold content path reads it

/**
 * Sealed static-dispatch shim between a cache and the mechanism
 * observing it.
 *
 * The seed model routed every cache event through a virtual
 * CacheHooks adapter that itself virtual-dispatched into the
 * HierarchyClient — two indirect calls per demand access on the L1
 * path. This shim is final, held by value inside the Cache, and every
 * hot method is an inline null-check plus at most one virtual call
 * into the client. `wantsLineContent` is sampled once at bind time so
 * refills pay for line-content materialization only when a
 * content-directed mechanism (CDP) is actually listening.
 */
class CacheHookShim final
{
  public:
    /** Attach @p client (nullptr detaches). @p image backs the
     *  line-content callback; @p line_bytes is the cache's line. */
    void
    bind(HierarchyClient *client, CacheLevel level,
         const MemoryImage *image, std::uint64_t line_bytes)
    {
        _client = client;
        _level = level;
        _image = image;
        _line_bytes = line_bytes;
        _wants_content = client && client->wantsLineContent(level);
    }

    bool attached() const { return _client != nullptr; }

    void
    onAccess(const MemRequest &req, bool hit, bool first_use) const
    {
        if (_client)
            _client->cacheAccess(_level, req, hit, first_use);
    }

    bool
    onMissProbe(Addr line_addr, Cycle now, Cycle &extra_latency) const
    {
        return _client && _client->cacheMissProbe(_level, line_addr,
                                                  now, extra_latency);
    }

    void
    onEvict(Addr line_addr, bool dirty, Cycle now) const
    {
        if (_client)
            _client->cacheEvict(_level, line_addr, dirty, now);
    }

    void
    onRefill(Addr line_addr, AccessKind cause, Cycle now) const
    {
        if (!_client)
            return;
        _client->cacheRefill(_level, line_addr, cause, now);
        if (_wants_content)
            refillContent(line_addr, cause, now);
    }

  private:
    /** Cold path: materialize the refilled line's words for CDP. */
    void refillContent(Addr line_addr, AccessKind cause,
                       Cycle now) const;

    /** Reused line-content buffers, one per nesting level: a client
     *  may refill (prefetch) another line from inside lineContent(),
     *  and the outer scan's words must survive the inner refill
     *  (a deque: growing it never moves a buffer in use). */
    mutable std::deque<std::vector<Word>> _words;
    mutable std::size_t _nesting = 0;

    HierarchyClient *_client = nullptr;
    const MemoryImage *_image = nullptr;
    std::uint64_t _line_bytes = 0;
    CacheLevel _level = CacheLevel::L1D;
    bool _wants_content = false;
};

/** Cache geometry, timing and realism flags. */
struct CacheParams
{
    std::string name = "cache";
    std::uint64_t size = 32 * 1024;
    std::uint64_t line = 32;
    unsigned assoc = 1;
    unsigned ports = 4;
    Cycle latency = 1;
    unsigned mshrs = 8;
    unsigned reads_per_mshr = 4;

    // Realism flags (all true = MicroLib model, all false =
    // SimpleScalar-like model; Figures 1 and 9).
    bool finite_mshr = true;
    bool pipeline_stalls = true;
    bool refill_uses_ports = true;
    bool port_contention = true;
};

/** Set-associative write-back write-allocate cache. */
class Cache final : public MemDevice
{
  public:
    /**
     * @param p geometry/timing
     * @param parent next level (L2 or memory); may be nullptr for
     *        tests that treat misses as constant-latency
     * @param parent_bus bus between this cache and the parent
     *        (nullptr = direct connection)
     */
    Cache(const CacheParams &p, MemDevice *parent, Bus *parent_bus);

    Cycle access(const MemRequest &req) override;
    const char *deviceName() const override { return _p.name.c_str(); }

    /**
     * Attach/detach the mechanism observer for this cache level
     * (nullptr detaches). @p image backs the line-content callback
     * for content-directed mechanisms; may be nullptr (zero-filled
     * lines are reported then).
     */
    void
    bindClient(HierarchyClient *client, CacheLevel level,
               const MemoryImage *image)
    {
        _hooks.bind(client, level, image, _p.line);
    }

    /** Tag probe without state change. */
    bool probe(Addr addr) const;

    /** True if the line is present and was filled by a prefetch and
     *  not yet used by a demand access. */
    bool linePrefetched(Addr addr) const;

    /** Invalidate a line (mechanism side structures use this when
     *  migrating a line out, e.g. victim cache swaps). */
    void invalidate(Addr addr);

    /** Register this cache's statistics under its name. */
    void registerStats(StatSet &stats) const;

    const CacheParams &params() const { return _p; }
    std::uint64_t sets() const { return _sets; }
    const MshrFile &mshr() const { return _mshr; }

    // Statistics (public read access for the harnesses).
    Counter demand_accesses;
    Counter demand_hits;
    Counter demand_misses;
    Counter prefetch_accesses;
    Counter prefetch_fills;
    Counter prefetch_used;    ///< prefetched lines later hit by demand
    Counter writebacks;
    Counter side_fills;       ///< misses satisfied by a side structure
    Counter delayed_hits;     ///< hits that waited on an in-flight fill
    Counter evictions;

  private:
    struct Line
    {
        Addr tag = 0;
        Cycle ready = 0;   ///< when the fill data actually arrives
        bool valid = false;
        bool dirty = false;
        bool prefetched = false;
    };

    CacheParams _p;
    MemDevice *_parent;
    Bus *_parent_bus;
    CacheHookShim _hooks;

    std::uint64_t _sets;
    unsigned _line_shift;     ///< log2(line): setIndex shifts, never divides
    std::uint64_t _set_mask;  ///< sets - 1
    std::vector<Line> _lines; // sets x assoc
    LruState _lru;
    MshrFile _mshr;

    ResourceSchedule _ports; ///< one acquisition per port per cycle
    Cycle _next_accept = 0;

    /** Reused writeback request: the miss path constructs nothing. */
    MemRequest _wb;

    std::uint64_t setIndex(Addr addr) const
    {
        return (addr >> _line_shift) & _set_mask;
    }
    Addr lineAddr(Addr addr) const { return alignDown(addr, _p.line); }
    Line &lineAt(std::uint64_t set, unsigned way)
    {
        return _lines[set * _p.assoc + way];
    }
    const Line &lineAt(std::uint64_t set, unsigned way) const
    {
        return _lines[set * _p.assoc + way];
    }

    /** Way holding @p addr, or -1. */
    int findWay(Addr addr) const;

    /** Acquire a cache port at or after @p t. */
    Cycle acquirePort(Cycle t);

    /** Install a line, evicting as needed; returns installed way.
     *  @param ready cycle the fill data arrives (hits before this
     *  wait for it — the timestamp-model equivalent of merging with
     *  an in-flight refill). */
    unsigned install(Addr line_addr, bool dirty, bool prefetched,
                     Cycle now, Cycle ready);

    /** Post a dirty victim to the parent (cold half of install). */
    void writebackVictim(Addr tag, Cycle now);

    Cycle handleWriteback(const MemRequest &req);
    Cycle fetchFromParent(Addr line_addr, AccessKind kind, Addr pc,
                          Cycle when);
};

} // namespace microlib

#endif // MICROLIB_MEM_CACHE_HH

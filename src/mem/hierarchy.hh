/**
 * @file
 * Memory hierarchy: L1I + L1D over a shared L1/L2 bus, a unified L2,
 * the front-side bus, and a memory model (SDRAM or constant-latency).
 *
 * The hierarchy is also the attachment point for data-cache
 * mechanisms: it forwards cache events to a HierarchyClient (the
 * mechanism) and offers the prefetch services mechanisms use. The
 * client interface lives here, below the mechanisms, so the mem
 * library stays independent of the mechanism library.
 */

#ifndef MICROLIB_MEM_HIERARCHY_HH
#define MICROLIB_MEM_HIERARCHY_HH

#include <memory>
#include <vector>

#include "mem/bus.hh"
#include "mem/cache.hh"
#include "mem/const_memory.hh"
#include "mem/hierarchy_client.hh"
#include "mem/sdram.hh"
#include "trace/memory_image.hh"

namespace microlib
{

/** Which memory model backs the L2 (Figure 8's three points). */
enum class MemoryModelKind
{
    ConstantLatency, ///< SimpleScalar-like flat latency
    Sdram,           ///< detailed SDRAM (Table 1 timings)
};

/** Full hierarchy configuration. */
struct HierarchyParams
{
    CacheParams l1d;
    CacheParams l1i;
    CacheParams l2;
    BusParams l1l2_bus;
    BusParams fsb;
    MemoryModelKind memory = MemoryModelKind::Sdram;
    Cycle const_latency = 70;
    SdramParams sdram;
    bool model_icache = true;
};

/** The assembled memory system. */
class Hierarchy
{
  public:
    Hierarchy(const HierarchyParams &p,
              std::shared_ptr<const MemoryImage> image);
    ~Hierarchy();

    Hierarchy(const Hierarchy &) = delete;
    Hierarchy &operator=(const Hierarchy &) = delete;

    /** Attach the mechanism; pass nullptr to detach. Rebinds the
     *  L1D and L2 hook shims (one devirtualized dispatch each). */
    void setClient(HierarchyClient *client);

    /** Core-side operations; return data-ready / accept cycle.
     *  Inline: the core calls them once per memory instruction or
     *  fetch-line change, straight into the (final) cache. */
    Cycle
    load(Addr addr, Addr pc, Cycle when)
    {
        return _l1d->access(demand(addr, pc, when, AccessKind::DemandRead));
    }

    Cycle
    store(Addr addr, Addr pc, Cycle when)
    {
        return _l1d->access(demand(addr, pc, when, AccessKind::DemandWrite));
    }

    Cycle
    ifetch(Addr pc, Cycle when)
    {
        if (!_l1i)
            return when + 1;
        return _l1i->access(demand(pc, pc, when, AccessKind::DemandRead));
    }

    // ----- services for mechanisms -------------------------------

    /** Prefetch @p addr into the L2; returns fill-complete cycle. */
    Cycle prefetchIntoL2(Addr addr, Addr pc, Cycle now);

    /**
     * Fetch the line containing @p addr towards an L1-side prefetch
     * buffer (occupying the L1/L2 bus and L2/memory); the line is
     * *not* installed in L1. Returns the buffer-ready cycle.
     */
    Cycle fetchForL1Buffer(Addr addr, Cycle now);

    bool l1Probe(Addr addr) const { return _l1d->probe(addr); }
    bool l2Probe(Addr addr) const { return _l2->probe(addr); }

    Cache &l1d() { return *_l1d; }
    Cache &l1i() { return *_l1i; }
    Cache &l2() { return *_l2; }
    const Cache &l1d() const { return *_l1d; }
    const Cache &l2() const { return *_l2; }
    Bus &fsb() { return *_fsb; }

    /** SDRAM model or nullptr when constant-latency memory is used. */
    Sdram *sdram() { return _sdram.get(); }

    const HierarchyParams &params() const { return _p; }
    const MemoryImage *image() const { return _image.get(); }

    void registerStats(StatSet &stats) const;

  private:
    HierarchyParams _p;
    std::shared_ptr<const MemoryImage> _image;
    HierarchyClient *_client = nullptr;

    std::unique_ptr<Bus> _l1l2_bus;
    std::unique_ptr<Bus> _fsb;
    std::unique_ptr<Sdram> _sdram;
    std::unique_ptr<ConstMemory> _constmem;
    std::unique_ptr<Cache> _l2;
    std::unique_ptr<Cache> _l1d;
    std::unique_ptr<Cache> _l1i;

    MemDevice *memoryDevice();

    static MemRequest
    demand(Addr addr, Addr pc, Cycle when, AccessKind kind)
    {
        MemRequest req;
        req.addr = addr;
        req.kind = kind;
        req.when = when;
        req.pc = pc;
        return req;
    }
};

} // namespace microlib

#endif // MICROLIB_MEM_HIERARCHY_HH

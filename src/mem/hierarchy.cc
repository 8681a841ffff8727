#include "mem/hierarchy.hh"

#include "sim/logging.hh"

namespace microlib
{

Hierarchy::Hierarchy(const HierarchyParams &p,
                     std::shared_ptr<const MemoryImage> image)
    : _p(p), _image(std::move(image))
{
    _fsb = std::make_unique<Bus>(p.fsb);
    _l1l2_bus = std::make_unique<Bus>(p.l1l2_bus);

    if (p.memory == MemoryModelKind::Sdram)
        _sdram = std::make_unique<Sdram>(p.sdram, _fsb.get());
    else
        _constmem = std::make_unique<ConstMemory>(p.const_latency);

    _l2 = std::make_unique<Cache>(p.l2, memoryDevice(), nullptr);
    _l1d = std::make_unique<Cache>(p.l1d, _l2.get(), _l1l2_bus.get());
    if (p.model_icache)
        _l1i = std::make_unique<Cache>(p.l1i, _l2.get(),
                                       _l1l2_bus.get());

    setClient(nullptr); // initialize both caches' hook shims
}

Hierarchy::~Hierarchy() = default;

void
Hierarchy::setClient(HierarchyClient *client)
{
    _client = client;
    // The caches dispatch to the client through their own sealed
    // shims — no per-event indirection through the Hierarchy.
    _l1d->bindClient(client, CacheLevel::L1D, _image.get());
    _l2->bindClient(client, CacheLevel::L2, _image.get());
}

MemDevice *
Hierarchy::memoryDevice()
{
    if (_sdram)
        return _sdram.get();
    return _constmem.get();
}

Cycle
Hierarchy::prefetchIntoL2(Addr addr, Addr pc, Cycle now)
{
    MemRequest req;
    req.addr = addr;
    req.kind = AccessKind::Prefetch;
    req.when = now;
    req.pc = pc;
    return _l2->access(req);
}

Cycle
Hierarchy::fetchForL1Buffer(Addr addr, Cycle now)
{
    // The request crosses the L1/L2 bus, queries the L2 (fetching
    // from memory on an L2 miss) and the line travels back. It never
    // enters the L1 array: mechanisms keep it in their own buffers.
    Cycle t = _l1l2_bus->transfer(now, 8);

    MemRequest req;
    req.addr = addr;
    req.kind = AccessKind::Prefetch;
    req.when = t;
    const Cycle ready = _l2->access(req);

    return _l1l2_bus->transfer(ready, _p.l1d.line);
}

void
Hierarchy::registerStats(StatSet &stats) const
{
    _l1d->registerStats(stats);
    if (_l1i)
        _l1i->registerStats(stats);
    _l2->registerStats(stats);
    if (_sdram)
        _sdram->registerStats(stats);
    if (_constmem)
        _constmem->registerStats(stats);
}

} // namespace microlib

#include "mem/cache.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "trace/memory_image.hh"

namespace microlib
{

void
CacheHookShim::refillContent(Addr line_addr, AccessKind cause,
                             Cycle now) const
{
    if (_nesting == _words.size())
        _words.emplace_back();
    std::vector<Word> &words = _words[_nesting];
    if (_image)
        _image->readLine(line_addr, _line_bytes, words);
    else
        words.assign(_line_bytes / 8, 0);
    ++_nesting;
    _client->lineContent(_level, line_addr, words, cause, now);
    --_nesting;
}

Cache::Cache(const CacheParams &p, MemDevice *parent, Bus *parent_bus)
    : _p(p), _parent(parent), _parent_bus(parent_bus),
      _sets(p.size / (p.line * p.assoc)), _line_shift(floorLog2(p.line)),
      _set_mask(_sets - 1),
      _lines(_sets * p.assoc),
      _lru(_sets, p.assoc),
      _mshr(p.mshrs, p.reads_per_mshr, !p.finite_mshr),
      _ports(p.ports)
{
    if (!isPowerOfTwo(p.size) || !isPowerOfTwo(p.line) ||
        p.size % (p.line * p.assoc) != 0)
        fatal("cache '", p.name, "': inconsistent geometry");
    if (!isPowerOfTwo(_sets))
        fatal("cache '", p.name, "': set count must be a power of two");
    if (p.ports == 0)
        fatal("cache '", p.name, "': needs at least one port");
    if (p.assoc > 64)
        fatal("cache '", p.name,
              "': associativity above 64 exceeds the occupancy mask");
    _wb.kind = AccessKind::Writeback;
}

int
Cache::findWay(Addr addr) const
{
    const std::uint64_t set = setIndex(addr);
    const Addr tag = lineAddr(addr);
    for (unsigned w = 0; w < _p.assoc; ++w) {
        const Line &l = lineAt(set, w);
        if (l.valid && l.tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

bool
Cache::probe(Addr addr) const
{
    return findWay(addr) >= 0;
}

bool
Cache::linePrefetched(Addr addr) const
{
    const int w = findWay(addr);
    if (w < 0)
        return false;
    return lineAt(setIndex(addr), static_cast<unsigned>(w)).prefetched;
}

void
Cache::invalidate(Addr addr)
{
    const int w = findWay(addr);
    if (w < 0)
        return;
    lineAt(setIndex(addr), static_cast<unsigned>(w)).valid = false;
}

Cycle
Cache::acquirePort(Cycle t)
{
    if (!_p.port_contention)
        return t;
    // Pipelined ports: `ports` new accesses may start each cycle;
    // the schedule backfills gaps left by future-booked refills.
    return _ports.acquire(t);
}

unsigned
Cache::install(Addr line_addr, bool dirty, bool prefetched, Cycle now,
               Cycle ready)
{
    const std::uint64_t set = setIndex(line_addr);

    // Already present (race between a side fill and a refill): update.
    if (int w = findWay(line_addr); w >= 0) {
        Line &l = lineAt(set, static_cast<unsigned>(w));
        l.dirty = l.dirty || dirty;
        l.ready = std::min(l.ready, ready);
        _lru.touch(set, static_cast<unsigned>(w));
        return static_cast<unsigned>(w);
    }

    // Occupancy as a 64-bit mask: the seed built a std::vector<bool>
    // here — a heap allocation on every miss.
    std::uint64_t valid = 0;
    for (unsigned w = 0; w < _p.assoc; ++w)
        valid |= std::uint64_t{lineAt(set, w).valid} << w;
    const unsigned victim =
        static_cast<unsigned>(_lru.victim(set, valid));

    Line &l = lineAt(set, victim);
    if (l.valid) {
        ++evictions;
        _hooks.onEvict(l.tag, l.dirty, now);
        if (l.dirty)
            writebackVictim(l.tag, now);
    }

    l.tag = lineAddr(line_addr);
    l.ready = ready;
    l.valid = true;
    l.dirty = dirty;
    l.prefetched = prefetched;
    _lru.touch(set, victim);
    return victim;
}

void
Cache::writebackVictim(Addr tag, Cycle now)
{
    ++writebacks;
    if (!_parent)
        return;
    Cycle t = now;
    if (_parent_bus)
        t = _parent_bus->transfer(t, _p.line);
    // _wb is a hoisted member (kind fixed at construction): the miss
    // path performs no request construction, only field updates.
    _wb.addr = tag;
    _wb.when = t;
    _wb.pc = 0;
    _parent->access(_wb); // posted
}

Cycle
Cache::fetchFromParent(Addr line_addr, AccessKind kind, Addr pc,
                       Cycle when)
{
    if (!_parent)
        return when; // leaf configuration (unit tests)

    // Requests travel on the address path (fixed one-cycle hop); the
    // shared data bus carries only responses and writebacks, so a
    // booked response does not stall the next request.
    Cycle send = when;
    if (_parent_bus)
        send = when + 1;

    MemRequest req;
    req.addr = line_addr;
    // A store miss still *reads* the line from the parent
    // (allocate-on-write); prefetches keep their kind so lower
    // levels can account for them.
    req.kind = kind == AccessKind::Prefetch ? AccessKind::Prefetch
                                            : AccessKind::DemandRead;
    req.when = send;
    req.pc = pc;
    const Cycle parent_ready = _parent->access(req);

    Cycle resp = parent_ready;
    if (_parent_bus)
        resp = _parent_bus->transfer(resp, _p.line);
    return resp;
}

Cycle
Cache::handleWriteback(const MemRequest &req)
{
    Cycle t = req.when;
    if (_p.pipeline_stalls)
        t = std::max(t, _next_accept);
    t = acquirePort(t);

    const Addr line = lineAddr(req.addr);
    if (int w = findWay(line); w >= 0) {
        const std::uint64_t set = setIndex(line);
        Line &l = lineAt(set, static_cast<unsigned>(w));
        l.dirty = true;
        _lru.touch(set, static_cast<unsigned>(w));
    } else {
        // Full-line write from the child: allocate without fetching.
        install(line, true, false, t, t);
        _hooks.onRefill(line, AccessKind::Writeback, t);
    }
    return t + 1;
}

Cycle
Cache::access(const MemRequest &req)
{
    if (req.kind == AccessKind::Writeback)
        return handleWriteback(req);

    const bool demand = isDemand(req.kind);
    const Addr line = lineAddr(req.addr);

    Cycle t = req.when;
    if (_p.pipeline_stalls)
        t = std::max(t, _next_accept);
    t = acquirePort(t);

    if (demand)
        ++demand_accesses;
    else
        ++prefetch_accesses;

    // ------------------------------------------------------------ hit
    if (int w = findWay(line); w >= 0) {
        const std::uint64_t set = setIndex(line);
        Line &l = lineAt(set, static_cast<unsigned>(w));
        bool first_use = false;
        if (demand) {
            ++demand_hits;
            if (l.prefetched) {
                l.prefetched = false;
                first_use = true;
                ++prefetch_used;
            }
            if (req.kind == AccessKind::DemandWrite)
                l.dirty = true;
            _lru.touch(set, static_cast<unsigned>(w));
            _hooks.onAccess(req, true, first_use);
        }
        // A hit on a line whose fill is still in flight waits for the
        // data: this is how merging with an in-flight (pre)fetch is
        // expressed in the timestamp model, and what makes a too-late
        // prefetch cost real time.
        const Cycle done = std::max(t + _p.latency, l.ready);
        if (demand && l.ready > t + _p.latency)
            ++delayed_hits;
        return done;
    }

    // ----------------------------------------------------------- miss
    if (demand) {
        ++demand_misses;
        _hooks.onAccess(req, false, false);

        // Side structures (victim cache, FVC, prefetch buffers) may
        // hold the line.
        Cycle extra = 0;
        if (_hooks.onMissProbe(line, t + _p.latency, extra)) {
            ++side_fills;
            install(line, req.kind == AccessKind::DemandWrite, false,
                    t, t + _p.latency + extra);
            // A side fill is a refill too: generation-tracking
            // mechanisms must see the line enter the cache.
            _hooks.onRefill(line, req.kind, t + _p.latency + extra);
            return t + _p.latency + extra;
        }
    }

    Cycle miss_t = t + _p.latency;

    // MSHR allocation. Prefetches allocate too: a demand access that
    // arrives while a prefetch for the same line is in flight merges
    // and rides the refill instead of duplicating the memory fetch —
    // without this, every slightly-late prefetch doubles the DRAM
    // traffic. Flow control of prefetch volume still lives in the
    // mechanisms' request queues (Table 3).
    const MshrOutcome out = _mshr.allocate(line, miss_t);
    if (demand && _p.pipeline_stalls) {
        // The MSHR is unavailable for one cycle upon a request;
        // same-line conflicts also stall the front.
        _next_accept = std::max(_next_accept, out.start + 1);
    }
    if (out.merged) {
        // Ride the in-flight refill.
        return std::max(out.data_ready, miss_t) + 1;
    }
    miss_t = out.start;

    const Cycle resp = fetchFromParent(line, req.kind, req.pc, miss_t);

    // Refills contend for real ports in the MicroLib model.
    Cycle fill = resp;
    if (_p.refill_uses_ports)
        fill = acquirePort(resp);

    install(line, req.kind == AccessKind::DemandWrite,
            req.kind == AccessKind::Prefetch, fill, fill + 1);
    if (req.kind == AccessKind::Prefetch)
        ++prefetch_fills;
    _mshr.complete(line, fill + 1);
    _hooks.onRefill(line, req.kind, fill);

    return fill + 1;
}

void
Cache::registerStats(StatSet &stats) const
{
    const std::string n = _p.name;
    stats.registerCounter(n + ".demand_accesses", &demand_accesses);
    stats.registerCounter(n + ".demand_hits", &demand_hits);
    stats.registerCounter(n + ".demand_misses", &demand_misses);
    stats.registerCounter(n + ".prefetch_accesses", &prefetch_accesses);
    stats.registerCounter(n + ".prefetch_fills", &prefetch_fills);
    stats.registerCounter(n + ".prefetch_used", &prefetch_used);
    stats.registerCounter(n + ".writebacks", &writebacks);
    stats.registerCounter(n + ".side_fills", &side_fills);
    stats.registerCounter(n + ".delayed_hits", &delayed_hits);
    stats.registerCounter(n + ".evictions", &evictions);
    stats.registerCounter(n + ".mshr_full_stalls", &_mshr.fullStalls());
    stats.registerCounter(n + ".mshr_merges", &_mshr.merges());
}

} // namespace microlib

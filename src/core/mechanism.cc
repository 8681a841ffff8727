#include "core/mechanism.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace microlib
{

// ---------------------------------------------------------- RequestQueue

RequestQueue::RequestQueue(unsigned capacity) : _capacity(capacity)
{
    if (capacity == 0)
        fatal("RequestQueue needs a non-zero capacity");
    _inflight.reserve(capacity);
}

bool
RequestQueue::hasSlot(Cycle now)
{
    std::erase_if(_inflight, [now](Cycle c) { return c <= now; });
    return _inflight.size() < _capacity;
}

void
RequestQueue::add(Cycle done)
{
    _inflight.push_back(done);
}

// ------------------------------------------------------------ LineBuffer

LineBuffer::LineBuffer(unsigned lines, std::uint64_t line_bytes)
    : _lines(lines), _line_bytes(line_bytes)
{
    if (lines == 0 || !isPowerOfTwo(line_bytes))
        fatal("LineBuffer: bad geometry");
    _entries.reserve(lines * 2);
}

bool
LineBuffer::probeAndTake(Addr line_addr, Cycle now, Cycle &extra)
{
    const Addr line = alignDown(line_addr, _line_bytes);
    auto it = _entries.find(line);
    if (it == _entries.end())
        return false;
    // One cycle to access the buffer, plus any wait for an in-flight
    // fill to land.
    extra = 1 + (it->second.ready > now ? it->second.ready - now : 0);
    _entries.erase(it);
    return true;
}

void
LineBuffer::insert(Addr line_addr, Cycle ready)
{
    const Addr line = alignDown(line_addr, _line_bytes);

    // Refresh an existing entry instead of duplicating.
    if (auto it = _entries.find(line); it != _entries.end()) {
        it->second.ready = std::min(it->second.ready, ready);
        it->second.stamp = ++_tick;
        return;
    }

    if (_entries.size() >= _lines) {
        // Evict the LRU entry (rare relative to probes, so the
        // linear scan is acceptable).
        auto victim = _entries.begin();
        for (auto it = _entries.begin(); it != _entries.end(); ++it)
            if (it->second.stamp < victim->second.stamp)
                victim = it;
        _entries.erase(victim);
        ++_unused_evictions;
    }
    _entries.emplace(line, Entry{ready, ++_tick});
}

bool
LineBuffer::contains(Addr line_addr) const
{
    return _entries.count(alignDown(line_addr, _line_bytes)) > 0;
}

std::size_t
LineBuffer::occupancy() const
{
    return _entries.size();
}

// -------------------------------------------------------- CacheMechanism

CacheMechanism::CacheMechanism(std::string acronym,
                               const MechanismConfig &cfg)
    : Module(std::move(acronym)), _cfg(cfg)
{
}

void
CacheMechanism::bind(Hierarchy &hier)
{
    _hier = &hier;
}

Addr
CacheMechanism::l1LineAddr(Addr a) const
{
    return alignDown(a, _hier->params().l1d.line);
}

Addr
CacheMechanism::l2LineAddr(Addr a) const
{
    return alignDown(a, _hier->params().l2.line);
}

std::uint64_t
CacheMechanism::l1LineBytes() const
{
    return _hier->params().l1d.line;
}

std::uint64_t
CacheMechanism::l2LineBytes() const
{
    return _hier->params().l2.line;
}

bool
CacheMechanism::issueL2Prefetch(RequestQueue &queue, Addr addr, Addr pc,
                                Cycle now)
{
    const Addr line = l2LineAddr(addr);
    if (_hier->l2Probe(line))
        return false; // already cached: no traffic
    if (!queue.hasSlot(now)) {
        ++prefetches_dropped;
        return false;
    }
    const Cycle done = _hier->prefetchIntoL2(line, pc, now);
    queue.add(done);
    ++prefetches_issued;
    return true;
}

bool
CacheMechanism::issueBufferFetch(RequestQueue &queue, LineBuffer &buffer,
                                 Addr addr, Cycle now)
{
    const Addr line = alignDown(addr, buffer.lineBytes());
    if (_hier->l1Probe(line) || buffer.contains(line))
        return false;
    if (!queue.hasSlot(now)) {
        ++prefetches_dropped;
        return false;
    }
    const Cycle ready = _hier->fetchForL1Buffer(line, now);
    queue.add(ready);
    buffer.insert(line, ready);
    ++prefetches_issued;
    return true;
}

void
CacheMechanism::registerStats(StatSet &stats) const
{
    const std::string n = "mech." + name();
    stats.registerCounter(n + ".table_reads", &table_reads);
    stats.registerCounter(n + ".table_writes", &table_writes);
    stats.registerCounter(n + ".prefetches_issued", &prefetches_issued);
    stats.registerCounter(n + ".prefetches_dropped",
                          &prefetches_dropped);
    stats.registerCounter(n + ".side_hits", &side_hits);
}

} // namespace microlib

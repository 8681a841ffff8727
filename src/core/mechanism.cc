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
    if (lines == 0 || lines >= none / 2 || !isPowerOfTwo(line_bytes))
        fatal("LineBuffer: bad geometry");
    _line_shift = floorLog2(line_bytes);
    // At most half the index cells are ever occupied, so probe
    // chains stay short and always end at an empty cell.
    const unsigned index_bits = floorLog2(lines) + 2;
    _index_shift = 64 - index_bits;
    _index_mask = (std::uint64_t{1} << index_bits) - 1;
    _index.assign(_index_mask + 1, none);
    _slots.resize(lines);
    for (std::uint32_t s = 0; s < lines; ++s)
        _slots[s].next = s + 1 < lines ? s + 1 : none;
}

std::uint64_t
LineBuffer::home(Addr line) const
{
    // Fibonacci hashing of the line number: the top bits of the
    // product mix every address bit into the index.
    return ((line >> _line_shift) * 0x9e3779b97f4a7c15ull) >> _index_shift;
}

std::uint64_t
LineBuffer::cellOf(Addr line) const
{
    std::uint64_t c = home(line);
    while (_index[c] != none && _slots[_index[c]].line != line)
        c = (c + 1) & _index_mask;
    return c;
}

void
LineBuffer::unlink(std::uint32_t s)
{
    Slot &e = _slots[s];
    (e.prev == none ? _head : _slots[e.prev].next) = e.next;
    (e.next == none ? _tail : _slots[e.next].prev) = e.prev;
}

void
LineBuffer::pushFront(std::uint32_t s)
{
    Slot &e = _slots[s];
    e.prev = none;
    e.next = _head;
    (_head == none ? _tail : _slots[_head].prev) = s;
    _head = s;
}

void
LineBuffer::remove(std::uint64_t cell, std::uint32_t s)
{
    // Backward-shift deletion: pull each later cell of the chain into
    // the hole unless the hole lies before that cell's home.
    for (std::uint64_t next = (cell + 1) & _index_mask;
         _index[next] != none; next = (next + 1) & _index_mask) {
        const std::uint64_t h = home(_slots[_index[next]].line);
        if (((next - h) & _index_mask) >= ((next - cell) & _index_mask)) {
            _index[cell] = _index[next];
            cell = next;
        }
    }
    _index[cell] = none;
    unlink(s);
    _slots[s].next = _free;
    _free = s;
    --_size;
}

bool
LineBuffer::probeAndTake(Addr line_addr, Cycle now, Cycle &extra)
{
    const Addr line = alignDown(line_addr, _line_bytes);
    const std::uint64_t cell = cellOf(line);
    const std::uint32_t s = _index[cell];
    if (s == none)
        return false;
    // One cycle to access the buffer, plus any wait for an in-flight
    // fill to land.
    const Cycle ready = _slots[s].ready;
    extra = 1 + (ready > now ? ready - now : 0);
    remove(cell, s);
    return true;
}

void
LineBuffer::insert(Addr line_addr, Cycle ready)
{
    const Addr line = alignDown(line_addr, _line_bytes);

    // Refresh an existing entry instead of duplicating.
    if (const std::uint32_t s = _index[cellOf(line)]; s != none) {
        _slots[s].ready = std::min(_slots[s].ready, ready);
        unlink(s);
        pushFront(s);
        return;
    }

    if (_size >= _lines) {
        // Evict the least recently inserted or refreshed entry.
        const std::uint32_t victim = _tail;
        remove(cellOf(_slots[victim].line), victim);
        ++_unused_evictions;
    }
    const std::uint32_t s = _free;
    _free = _slots[s].next;
    _slots[s].line = line;
    _slots[s].ready = ready;
    pushFront(s);
    _index[cellOf(line)] = s;
    ++_size;
}

bool
LineBuffer::contains(Addr line_addr) const
{
    return _index[cellOf(alignDown(line_addr, _line_bytes))] != none;
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

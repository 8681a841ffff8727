#include "mechanisms/cdp.hh"

#include <algorithm>
#include <bit>

#include "trace/kernels.hh"

namespace microlib
{

Cdp::Cdp(const MechanismConfig &cfg) : Cdp(cfg, Params())
{
}

Cdp::Cdp(const MechanismConfig &cfg, const Params &p)
    : CacheMechanism("CDP", cfg), _p(p), _queue(p.request_queue)
{
}

bool
Cdp::candidate(Word w)
{
    // The hardware filter compares the value's upper bits with the
    // base of the data segment; our synthetic heap plays that role.
    return looksLikeHeapPointer(w);
}

bool
Cdp::wantsLineContent(CacheLevel lvl) const
{
    return lvl == CacheLevel::L2;
}

void
Cdp::lineContent(CacheLevel lvl, Addr line,
                 const std::vector<Word> &words, AccessKind cause,
                 Cycle now)
{
    if (lvl != CacheLevel::L2)
        return;

    unsigned depth = 0;
    if (cause == AccessKind::Prefetch) {
        if (!_depth.take(line, depth))
            depth = _p.depth_threshold;
        if (depth >= _p.depth_threshold)
            return; // recursion bound reached
    } else if (cause == AccessKind::Writeback) {
        return; // dirty evictions from L1 carry no new reachability
    }

    for (const Word w : words) {
        if (!candidate(w))
            continue;
        ++pointers_found;
        const Addr target = l2LineAddr(static_cast<Addr>(w));
        if (hier()->l2Probe(target))
            continue;
        // Record the depth *before* issuing: the refill callback for
        // the prefetched line runs inside issueL2Prefetch, and the
        // recursive scan must see its depth.
        _depth.set(target, depth + 1);
        if (!issueL2Prefetch(_queue, target, 0, now))
            _depth.erase(target);
    }

    // Keep the depth map bounded: drop stale entries en masse.
    if (_depth.size() > 65536)
        _depth.clear();
}

std::size_t
Cdp::DepthMap::home(Addr line) const
{
    // Fibonacci hashing: neighbouring lines spread out.
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ull) >>
                                    _shift);
}

std::size_t
Cdp::DepthMap::locate(Addr line) const
{
    const std::size_t mask = _slots.size() - 1;
    std::size_t i = home(line);
    while (_slots[i].line != line && _slots[i].line != invalid_addr)
        i = (i + 1) & mask;
    return i;
}

bool
Cdp::DepthMap::take(Addr line, unsigned &depth)
{
    if (_slots.empty())
        return false;
    const std::size_t i = locate(line);
    if (_slots[i].line != line)
        return false;
    depth = _slots[i].depth;
    eraseAt(i);
    return true;
}

void
Cdp::DepthMap::set(Addr line, unsigned depth)
{
    if (4 * (_size + 1) > 3 * _slots.size()) {
        // At most three quarters full: double (from 64 slots) and
        // rehash. The 65537 entries that trigger Cdp's clear() fit
        // in 2^17 slots.
        std::vector<Slot> old(std::max<std::size_t>(64, 2 * _slots.size()));
        old.swap(_slots);
        _shift = 64 - static_cast<unsigned>(std::countr_zero(_slots.size()));
        for (const Slot &slot : old)
            if (slot.line != invalid_addr)
                _slots[locate(slot.line)] = slot;
    }
    Slot &slot = _slots[locate(line)];
    if (slot.line != line) {
        slot.line = line;
        ++_size;
    }
    slot.depth = depth;
}

void
Cdp::DepthMap::erase(Addr line)
{
    if (_slots.empty())
        return;
    const std::size_t i = locate(line);
    if (_slots[i].line == line)
        eraseAt(i);
}

void
Cdp::DepthMap::eraseAt(std::size_t i)
{
    // Backward shift: pull each later entry of the probe run into the
    // hole unless that would move it before its home slot.
    const std::size_t mask = _slots.size() - 1;
    for (std::size_t j = (i + 1) & mask; _slots[j].line != invalid_addr;
         j = (j + 1) & mask) {
        const std::size_t h = home(_slots[j].line);
        if (((j - h) & mask) >= ((j - i) & mask)) {
            _slots[i] = _slots[j];
            i = j;
        }
    }
    _slots[i] = Slot{};
    --_size;
}

void
Cdp::DepthMap::clear()
{
    std::fill(_slots.begin(), _slots.end(), Slot{});
    _size = 0;
}

std::vector<SramSpec>
Cdp::hardware() const
{
    // Stateless: just the scanner comparators and the request queue.
    return {
        {"cdp.request_queue", _p.request_queue * 8, 0, 1},
    };
}

void
Cdp::describe(ParamTable &t) const
{
    t.section("Content-Directed Data Prefetching");
    t.add("Prefetch Depth Threshold", _p.depth_threshold);
    t.add("Request Queue Size", _p.request_queue);
}

} // namespace microlib

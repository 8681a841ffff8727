#include "mechanisms/ghb.hh"

#include <algorithm>

namespace microlib
{

Ghb::Ghb(const MechanismConfig &cfg) : Ghb(cfg, Params())
{
}

Ghb::Ghb(const MechanismConfig &cfg, const Params &p)
    : CacheMechanism("GHB", cfg), _p(p), _queue(p.request_queue),
      _ghb(p.ghb_entries), _it(p.it_entries)
{
    // The walk stops at max_chain addresses (or the first, always).
    _hist.reserve(std::max(1u, p.max_chain));
    _deltas.reserve(std::max(1u, p.max_chain));
}

bool
Ghb::entryLive(std::uint32_t idx, std::uint64_t serial) const
{
    // An entry is live while the FIFO has not wrapped past it; the
    // serial stamp detects stale links.
    if (idx == ~0u || serial == 0)
        return false;
    const GhbEntry &e = _ghb[idx % _ghb.size()];
    return e.serial == serial &&
           _serial - serial <= _ghb.size();
}

void
Ghb::push(Addr pc, Addr addr, Cycle now)
{
    ++_serial;
    const std::uint32_t slot =
        static_cast<std::uint32_t>(_serial % _ghb.size());

    ItEntry &it = _it[(pc >> 2) % _it.size()];
    GhbEntry &e = _ghb[slot];
    e.addr = addr;
    e.serial = _serial;
    e.prev = ~0u;
    ++table_writes;

    std::uint64_t prev_serial = 0;
    if (it.pc == pc && entryLive(it.head, it.head_serial)) {
        e.prev = it.head;
        prev_serial = it.head_serial;
    } else {
        it.pc = pc;
    }
    it.head = slot;
    it.head_serial = _serial;

    // ---- delta correlation over the per-PC chain -------------------
    // Gather recent addresses: a0 (this miss), a1, a2, ... up to the
    // chain bound.
    std::vector<Addr> &hist = _hist;
    hist.assign(1, addr);
    std::uint32_t idx = e.prev;
    std::uint64_t ser = prev_serial;
    while (entryLive(idx, ser) && hist.size() < _p.max_chain) {
        const GhbEntry &prev = _ghb[idx % _ghb.size()];
        hist.push_back(prev.addr);
        ++chain_walks;
        ++table_reads;
        // Follow the chain; the previous entry's serial is inferred
        // from its own stored link stamp.
        const std::uint32_t next_idx = prev.prev;
        std::uint64_t next_ser = 0;
        if (next_idx != ~0u) {
            const GhbEntry &cand = _ghb[next_idx % _ghb.size()];
            next_ser = cand.serial;
            if (next_ser >= prev.serial) // link must point backwards
                break;
        }
        idx = next_idx;
        ser = next_ser;
    }

    if (hist.size() < 4)
        return;

    // Deltas: d[i] = hist[i] - hist[i+1] (most recent first).
    std::vector<std::int64_t> &deltas = _deltas;
    deltas.clear();
    for (std::size_t i = 0; i + 1 < hist.size(); ++i)
        deltas.push_back(static_cast<std::int64_t>(hist[i]) -
                         static_cast<std::int64_t>(hist[i + 1]));

    // Find the most recent earlier occurrence of the pair
    // (deltas[1], deltas[0]).
    for (std::size_t i = 2; i + 1 < deltas.size(); ++i) {
        if (deltas[i] != deltas[0] || deltas[i + 1] != deltas[1])
            continue;
        // Replay the deltas that followed that occurrence:
        // deltas[i-1], deltas[i-2], ... are the next strides.
        Addr target = addr;
        unsigned issued = 0;
        for (std::size_t j = i; j-- > 0 && issued < _p.degree;) {
            target = static_cast<Addr>(
                static_cast<std::int64_t>(target) + deltas[j]);
            if (issueL2Prefetch(_queue, target, pc, now))
                ++issued;
        }
        return;
    }

    // Fallback: constant-stride detection on the two newest deltas.
    if (deltas[0] != 0 && deltas[0] == deltas[1]) {
        Addr target = addr;
        for (unsigned d = 0; d < _p.degree; ++d) {
            target = static_cast<Addr>(
                static_cast<std::int64_t>(target) + deltas[0]);
            issueL2Prefetch(_queue, target, pc, now);
        }
    }
}

void
Ghb::cacheAccess(CacheLevel lvl, const MemRequest &req, bool hit,
                 bool first_use)
{
    (void)first_use;
    if (lvl != CacheLevel::L2 || hit)
        return; // trains on the L2 miss stream
    push(req.pc, l2LineAddr(req.addr), req.when);
}

std::vector<SramSpec>
Ghb::hardware() const
{
    // GHB entry: addr 4 B + link 4 B; IT entry: pc 4 B + head 4 B.
    return {
        {"ghb.buffer", _p.ghb_entries * 8ull, 1, 1},
        {"ghb.index_table", _p.it_entries * 8ull, 1, 1},
        {"ghb.request_queue", _p.request_queue * 8ull, 0, 1},
    };
}

void
Ghb::describe(ParamTable &t) const
{
    t.section("Global History Buffer");
    t.add("IT entries", _p.it_entries);
    t.add("GHB entries", _p.ghb_entries);
    t.add("Request Queue Size", _p.request_queue);
    t.add("Degree", _p.degree);
}

} // namespace microlib

#include "mechanisms/markov_prefetch.hh"

#include "sim/logging.hh"

namespace microlib
{

MarkovPrefetch::MarkovPrefetch(const MechanismConfig &cfg) : MarkovPrefetch(cfg, Params())
{
}

MarkovPrefetch::MarkovPrefetch(const MechanismConfig &cfg,
                               const Params &p)
    : CacheMechanism("Markov", cfg), _p(p), _queue(p.request_queue),
      _index_mask(std::uint64_t{p.table_entries} - 1)
{
    if (!isPowerOfTwo(p.table_entries))
        fatal("Markov: ", p.table_entries,
              " table entries is not a power of two");
    if (p.predictions == 0 || p.predictions > max_predictions)
        fatal("Markov: ", p.predictions, " predictions per entry is "
              "outside 1..", max_predictions);
    _table.assign(p.table_entries, Entry{});
}

void
MarkovPrefetch::bind(Hierarchy &hier)
{
    CacheMechanism::bind(hier);
    _buffer = std::make_unique<LineBuffer>(_p.buffer_lines,
                                           hier.params().l1d.line);
}

MarkovPrefetch::Entry &
MarkovPrefetch::entryFor(Addr line)
{
    // Direct-mapped on the line address. Multiplicative hashing must
    // index with the *high* product bits: line addresses have many
    // trailing zeros, so the low bits of the product collide.
    const std::uint64_t h =
        ((line >> 5) * 0x9e3779b97f4a7c15ull) >> 32;
    return _table[h & _index_mask];
}

void
MarkovPrefetch::learn(Addr prev_line, Addr line)
{
    Entry &e = entryFor(prev_line);
    ++table_writes;
    if (e.tag != prev_line)
        e = Entry{prev_line};
    const auto id = static_cast<std::uint32_t>(line >> 5);
    // Already recorded: refresh LRU stamp.
    for (unsigned i = 0; i < _p.predictions; ++i) {
        if (e.stamps[i] != 0 && e.succ[i] == id) {
            e.stamps[i] = ++_tick;
            return;
        }
    }
    // Replace LRU slot.
    unsigned victim = 0;
    for (unsigned i = 1; i < _p.predictions; ++i)
        if (e.stamps[i] < e.stamps[victim])
            victim = i;
    e.succ[victim] = id;
    e.stamps[victim] = ++_tick;
}

void
MarkovPrefetch::predict(Addr line, Cycle now)
{
    const Entry &e = entryFor(line);
    ++table_reads;
    if (e.tag != line)
        return;
    for (unsigned i = 0; i < _p.predictions; ++i) {
        if (e.stamps[i] == 0)
            continue;
        const Addr target = static_cast<Addr>(e.succ[i]) << 5;
        issueBufferFetch(_queue, *_buffer, target, now);
    }
}

void
MarkovPrefetch::cacheAccess(CacheLevel lvl, const MemRequest &req,
                            bool hit, bool first_use)
{
    (void)first_use;
    if (lvl != CacheLevel::L1D || hit)
        return;

    const Addr line = l1LineAddr(req.addr);
    if (_prev_miss != invalid_addr && _prev_miss != line)
        learn(_prev_miss, line);
    _prev_miss = line;
    predict(line, req.when);
}

bool
MarkovPrefetch::cacheMissProbe(CacheLevel lvl, Addr line, Cycle now,
                               Cycle &extra_latency)
{
    if (lvl != CacheLevel::L1D || !_buffer)
        return false;
    if (_buffer->probeAndTake(line, now, extra_latency)) {
        ++side_hits;
        return true;
    }
    return false;
}

std::vector<SramSpec>
MarkovPrefetch::hardware() const
{
    // Entry: tag (4 B) + predictions x 4 B.
    const std::uint64_t entry_bytes = 4 + 4ull * _p.predictions;
    return {
        {"markov.table", _p.table_entries * entry_bytes, 1, 1},
        {"markov.buffer",
         _p.buffer_lines * (hier() ? hier()->params().l1d.line : 32),
         0, 1},
        {"markov.request_queue", _p.request_queue * 8, 0, 1},
    };
}

void
MarkovPrefetch::describe(ParamTable &t) const
{
    t.section("Markov Prefetcher");
    t.add("Prediction Table Entries", _p.table_entries);
    t.add("Predictions per entry", _p.predictions);
    t.add("Request Queue Size", _p.request_queue);
    t.add("Prefetch Buffer Lines", _p.buffer_lines);
}

} // namespace microlib

#include "mechanisms/markov_prefetch.hh"

#include <algorithm>

namespace microlib
{

MarkovPrefetch::MarkovPrefetch(const MechanismConfig &cfg) : MarkovPrefetch(cfg, Params())
{
}

MarkovPrefetch::MarkovPrefetch(const MechanismConfig &cfg,
                               const Params &p)
    : CacheMechanism("Markov", cfg), _p(p), _queue(p.request_queue),
      _tags(p.table_entries, invalid_addr),
      _succ(std::size_t(p.table_entries) * p.predictions, 0),
      _stamps(std::size_t(p.table_entries) * p.predictions, 0)
{
}

void
MarkovPrefetch::bind(Hierarchy &hier)
{
    CacheMechanism::bind(hier);
    _buffer = std::make_unique<LineBuffer>(_p.buffer_lines,
                                           hier.params().l1d.line);
}

std::size_t
MarkovPrefetch::entryFor(Addr line) const
{
    // Direct-mapped on the line address. Multiplicative hashing must
    // index with the *high* product bits: line addresses have many
    // trailing zeros, so the low bits of the product collide.
    const std::uint64_t h =
        ((line >> 5) * 0x9e3779b97f4a7c15ull) >> 32;
    return static_cast<std::size_t>(h % _tags.size());
}

void
MarkovPrefetch::learn(Addr prev_line, Addr line)
{
    const std::size_t e = entryFor(prev_line);
    std::uint32_t *succ = &_succ[e * _p.predictions];
    std::uint64_t *stamps = &_stamps[e * _p.predictions];
    ++table_writes;
    if (_tags[e] != prev_line) {
        _tags[e] = prev_line;
        std::fill(succ, succ + _p.predictions, 0);
        std::fill(stamps, stamps + _p.predictions, 0);
    }
    const auto id = static_cast<std::uint32_t>(line >> 5);
    // Already recorded: refresh LRU stamp.
    for (unsigned i = 0; i < _p.predictions; ++i) {
        if (stamps[i] != 0 && succ[i] == id) {
            stamps[i] = ++_tick;
            return;
        }
    }
    // Replace LRU slot.
    unsigned victim = 0;
    for (unsigned i = 1; i < _p.predictions; ++i)
        if (stamps[i] < stamps[victim])
            victim = i;
    succ[victim] = id;
    stamps[victim] = ++_tick;
}

void
MarkovPrefetch::predict(Addr line, Cycle now)
{
    const std::size_t e = entryFor(line);
    ++table_reads;
    if (_tags[e] != line)
        return;
    for (std::size_t i = e * _p.predictions;
         i < (e + 1) * _p.predictions; ++i) {
        if (_stamps[i] == 0)
            continue;
        const Addr target = static_cast<Addr>(_succ[i]) << 5;
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

#include "mechanisms/frequent_value_cache.hh"

#include "trace/kernels.hh"

namespace microlib
{

FrequentValueCache::FrequentValueCache(const MechanismConfig &cfg) : FrequentValueCache(cfg, Params())
{
}

FrequentValueCache::FrequentValueCache(const MechanismConfig &cfg,
                                       const Params &p)
    : CacheMechanism("FVC", cfg), _p(p)
{
}

void
FrequentValueCache::bind(Hierarchy &hier)
{
    CacheMechanism::bind(hier);
    _buffer = std::make_unique<LineBuffer>(_p.lines,
                                           hier.params().l1d.line);
    _line_words.resize(hier.params().l1d.line / 8);
}

bool
FrequentValueCache::isFrequent(Word w) const
{
    for (unsigned i = 0; i < _p.values; ++i)
        if (w == frequentValue(i))
            return true;
    return false;
}

bool
FrequentValueCache::lineCompressible(Addr line) const
{
    const std::uint64_t bytes = hier()->params().l1d.line;
    if (const MemoryImage *image = hier()->image())
        image->readLine(line, bytes, _line_words);
    else
        _line_words.assign(bytes / 8, 0);
    for (const Word w : _line_words)
        if (!isFrequent(w))
            return false;
    return true;
}

bool
FrequentValueCache::cacheMissProbe(CacheLevel lvl, Addr line, Cycle now,
                                   Cycle &extra_latency)
{
    if (lvl != CacheLevel::L1D || !_buffer)
        return false;
    ++table_reads;
    if (_buffer->probeAndTake(line, now, extra_latency)) {
        // Decompression adds a cycle on top of the buffer access.
        extra_latency += 1;
        ++side_hits;
        return true;
    }
    return false;
}

void
FrequentValueCache::cacheEvict(CacheLevel lvl, Addr line, bool dirty,
                               Cycle now)
{
    (void)dirty;
    if (lvl != CacheLevel::L1D || !_buffer)
        return;
    if (lineCompressible(line)) {
        ++compressible_evictions;
        ++table_writes;
        _buffer->insert(line, now);
    } else {
        ++incompressible_evictions;
    }
}

std::vector<SramSpec>
FrequentValueCache::hardware() const
{
    // Compressed line: words x 3 bits + ~4 B tag; plus the frequent
    // value table itself.
    const std::uint64_t line_bytes =
        hier() ? hier()->params().l1d.line : 32;
    const std::uint64_t words = line_bytes / 8;
    const std::uint64_t entry_bytes = divCeil(words * 3, 8) + 4;
    return {
        {"fvc.array", _p.lines * entry_bytes, 1, 1},
        {"fvc.value_table", _p.values * 8, 0, 1},
    };
}

void
FrequentValueCache::describe(ParamTable &t) const
{
    t.section("Frequent Value Cache");
    t.add("Number of lines", _p.lines);
    t.add("Number of frequent values",
          std::to_string(_p.values) + " + unknown value");
}

} // namespace microlib

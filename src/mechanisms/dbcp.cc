#include "mechanisms/dbcp.hh"

#include <algorithm>
#include <iterator>

#include "sim/logging.hh"

namespace microlib
{

Dbcp::Dbcp(const MechanismConfig &cfg) : Dbcp(cfg, Params())
{
}

Dbcp::Dbcp(const MechanismConfig &cfg, const Params &p)
    : CacheMechanism("DBCP", cfg), _p(p), _fixed(!cfg.second_guess),
      _effective_entries(_fixed ? p.table_entries : p.table_entries / 2),
      _queue(p.request_queue)
{
    if (!isPowerOfTwo(p.table_assoc) || p.table_assoc > keys_per_line)
        fatal("DBCP: correlation associativity ", p.table_assoc,
              " must be a power of two of at most ", keys_per_line);
    if (!isPowerOfTwo(_effective_entries) ||
        _effective_entries < p.table_assoc)
        fatal("DBCP: ", _effective_entries, " correlation entries do "
              "not make a power-of-two number of ", p.table_assoc,
              "-way sets");
    _set_mask = _effective_entries / p.table_assoc - 1;
    _assoc_shift = floorLog2(p.table_assoc);
    KeyLine empty;
    std::fill(std::begin(empty.key), std::end(empty.key), no_key);
    _keys.assign((_effective_entries + keys_per_line - 1) / keys_per_line,
                 empty);
    _stamps.assign(_effective_entries, 0);
    _succ.assign(_effective_entries, 0);
    _conf.assign(_effective_entries, 0);
}

void
Dbcp::bind(Hierarchy &hier)
{
    CacheMechanism::bind(hier);
    const auto &l1 = hier.params().l1d;
    // The cache's geometry checks make line, set and frame counts
    // powers of two.
    const std::uint64_t l1_sets = l1.size / (l1.line * l1.assoc);
    _l1_line_shift = floorLog2(l1.line);
    _l1_set_mask = l1_sets - 1;
    _frame_mask = l1.size / l1.line - 1;
    _frames.assign(l1.size / l1.line, FrameState{});
    _pending.assign(l1_sets, PendingDeath{});
    _buffer = std::make_unique<LineBuffer>(_p.buffer_lines, l1.line);
}

std::uint64_t
Dbcp::frameIndex(Addr line) const
{
    // Direct-mapped L1 in the baseline: frame == set. With higher
    // associativity a frame is picked by the line's low index bits,
    // not by the way the cache placed it in, so lines of one set can
    // share a frame's signature: an approximation the baseline's
    // direct-mapped L1 never exercises.
    return (line >> _l1_line_shift) & _frame_mask;
}

std::uint64_t
Dbcp::l1Set(Addr line) const
{
    return (line >> _l1_line_shift) & _l1_set_mask;
}

std::uint32_t
Dbcp::updateSignature(std::uint32_t sig, Addr pc) const
{
    std::uint32_t enc = static_cast<std::uint32_t>(pc >> 2);
    if (_fixed) {
        // The article omitted this pre-hash; without it, nearby PCs
        // alias heavily in the correlation table (the reverse-
        // engineering error the authors helped the paper fix).
        enc *= 0x9e3779b9u;
        enc ^= enc >> 16;
    }
    return (sig << 1) ^ enc;
}

std::uint64_t
Dbcp::corrKey(Addr line, std::uint32_t sig) const
{
    return ((line >> 5) * 0x9e3779b97f4a7c15ull) ^ sig;
}

std::size_t
Dbcp::setStart(std::uint64_t key) const
{
    return static_cast<std::size_t>((key & _set_mask) << _assoc_shift);
}

std::uint64_t *
Dbcp::keysAt(std::size_t first)
{
    // table_assoc divides keys_per_line: a set never straddles lines.
    return &_keys[first / keys_per_line].key[first % keys_per_line];
}

std::size_t
Dbcp::findCorr(std::uint64_t key)
{
    const std::size_t first = setStart(key);
    const std::uint64_t *keys = keysAt(first);
    for (unsigned w = 0; w < _p.table_assoc; ++w)
        if (keys[w] == key)
            return first + w;
    return no_entry;
}

std::size_t
Dbcp::allocCorr(std::uint64_t key)
{
    const std::size_t first = setStart(key);
    std::uint64_t *keys = keysAt(first);
    for (unsigned w = 0; w < _p.table_assoc; ++w)
        if (keys[w] == key)
            return first + w;
    // Miss: replace the first way with the smallest stamp.
    std::size_t victim = first;
    for (std::size_t e = first + 1; e < first + _p.table_assoc; ++e)
        if (_stamps[e] < _stamps[victim])
            victim = e;
    keys[victim - first] = key;
    _conf[victim] = 0;
    _succ[victim] = 0;
    return victim;
}

void
Dbcp::learn(Addr dead_line, std::uint32_t sig, Addr successor)
{
    const std::size_t e = allocCorr(corrKey(dead_line, sig));
    ++table_writes;
    const auto succ_id = static_cast<std::uint32_t>(successor >> 5);
    if (_succ[e] == succ_id) {
        if (_conf[e] < 3)
            ++_conf[e];
    } else {
        if (_conf[e] > 0 && _fixed) {
            // Stale signature: decay instead of thrashing (the
            // second documented omission in the article).
            --_conf[e];
        } else {
            _succ[e] = succ_id;
            _conf[e] = 1;
        }
    }
    _stamps[e] = ++_tick;
}

void
Dbcp::maybePredict(Addr line, std::uint32_t sig, Cycle now)
{
    ++table_reads;
    const std::size_t e = findCorr(corrKey(line, sig));
    if (e == no_entry || _conf[e] < 2)
        return;
    _stamps[e] = ++_tick;
    const Addr target = static_cast<Addr>(_succ[e]) << 5;
    issueBufferFetch(_queue, *_buffer, target, now);
}

void
Dbcp::cacheAccess(CacheLevel lvl, const MemRequest &req, bool hit,
                  bool first_use)
{
    (void)first_use;
    if (lvl != CacheLevel::L1D)
        return;
    if (!hit) {
        // The first access of the new generation contributes to its
        // signature too; the refill hook picks it up.
        _last_miss_pc = req.pc;
        return;
    }
    const Addr line = l1LineAddr(req.addr);
    FrameState &f = _frames[frameIndex(line)];
    if (f.line != line) {
        // The frame changed under us (side fill path): restart.
        f.line = line;
        f.signature = 0;
    }
    f.signature = updateSignature(f.signature, req.pc);
    maybePredict(line, f.signature, req.when);
}

void
Dbcp::cacheEvict(CacheLevel lvl, Addr line, bool dirty, Cycle now)
{
    (void)dirty;
    (void)now;
    if (lvl != CacheLevel::L1D)
        return;
    FrameState &f = _frames[frameIndex(line)];
    PendingDeath &pd = _pending[l1Set(line)];
    pd.line = line;
    pd.signature = (f.line == line) ? f.signature : 0;
    pd.valid = true;
}

void
Dbcp::cacheRefill(CacheLevel lvl, Addr line, AccessKind cause,
                  Cycle now)
{
    (void)cause;
    (void)now;
    if (lvl != CacheLevel::L1D)
        return;
    PendingDeath &pd = _pending[l1Set(line)];
    if (pd.valid && pd.line != line) {
        learn(pd.line, pd.signature, line);
        pd.valid = false;
    }
    FrameState &f = _frames[frameIndex(line)];
    f.line = line;
    // Generations of lines that are only ever missed (pointer
    // chains) still get a one-PC signature and an immediate death
    // check — without this, miss-dominated lines never predict.
    f.signature = updateSignature(0, _last_miss_pc);
    maybePredict(line, f.signature, now);
}

bool
Dbcp::cacheMissProbe(CacheLevel lvl, Addr line, Cycle now,
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
Dbcp::hardware() const
{
    // Correlation entry: key tag ~4 B + successor 4 B + conf: ~8 B.
    return {
        {"dbcp.correlation_table",
         static_cast<std::uint64_t>(_effective_entries) * 8,
         _p.table_assoc, 1},
        {"dbcp.history", _p.history_entries * 8, 1, 1},
        {"dbcp.buffer",
         _p.buffer_lines * (hier() ? hier()->params().l1d.line : 32),
         0, 1},
    };
}

void
Dbcp::describe(ParamTable &t) const
{
    t.section("Dead-Block Correlating Prefetcher");
    t.add("History entries", _p.history_entries);
    t.add("Correlation entries", _effective_entries);
    t.add("Correlation assoc", _p.table_assoc);
    t.add("Request Queue Size", _p.request_queue);
    t.add("Variant", _fixed ? "fixed" : "initial (second-guessed)");
}

} // namespace microlib

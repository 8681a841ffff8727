#include "mechanisms/timekeeping.hh"

#include "sim/logging.hh"

namespace microlib
{

Timekeeping::Timekeeping(const MechanismConfig &cfg) : Timekeeping(cfg, Params())
{
}

Timekeeping::Timekeeping(const MechanismConfig &cfg, const Params &p)
    : CacheMechanism("TK", cfg), _p(p), _fixed(!cfg.second_guess),
      _queue(p.request_queue),
      _corr(p.corr_bytes / 8) // 8 B per entry
{
    if (!isPowerOfTwo(p.refresh))
        fatal("TK: refresh quantum ", p.refresh,
              " must be a power of two");
    const std::uint64_t sets = p.corr_assoc ? _corr.size() / p.corr_assoc
                                            : 0;
    if (!isPowerOfTwo(sets))
        fatal("TK: ", _corr.size(), " correlation entries do not make "
              "a power-of-two number of ", p.corr_assoc, "-way sets");
    _refresh_mask = ~(p.refresh - 1);
    _corr_set_mask = sets - 1;
}

void
Timekeeping::bind(Hierarchy &hier)
{
    CacheMechanism::bind(hier);
    const auto &l1 = hier.params().l1d;
    const std::uint64_t l1_sets = l1.size / (l1.line * l1.assoc);
    _l1_line_shift = floorLog2(l1.line);
    _l1_set_mask = l1_sets - 1;
    _frame_mask = l1.size / l1.line - 1;
    _frames_per_set_shift = floorLog2(l1.assoc);
    _frames.assign(l1.size / l1.line, FrameState{});
    _pending_evict.assign(l1_sets, invalid_addr);
    _buffer = std::make_unique<LineBuffer>(_p.buffer_lines, l1.line);
}

Cycle
Timekeeping::quantize(Cycle idle) const
{
    if (!_fixed)
        return idle; // second-guess: raw cycle counting
    // Hardware counts in coarse refresh ticks.
    return idle & _refresh_mask;
}

Timekeeping::CorrEntry *
Timekeeping::corrSet(Addr line)
{
    // The address correlation table is frame-anchored: table sets map
    // onto groups of L1 frames, and the 8 ways of a set hold the last
    // dying (line -> replacement) pairs observed in that frame group.
    // A cyclically re-walked working set reproduces the same pair one
    // generation later — which is what makes 8 KB of state useful for
    // megabyte footprints.
    return &_corr[((line >> 5) & _corr_set_mask) * _p.corr_assoc];
}

Timekeeping::CorrEntry *
Timekeeping::findCorr(Addr line)
{
    CorrEntry *const set = corrSet(line);
    const std::uint64_t key = (line >> 5) * 0x9e3779b97f4a7c15ull;
    for (unsigned w = 0; w < _p.corr_assoc; ++w)
        if (set[w].key == key)
            return &set[w];
    return nullptr;
}

void
Timekeeping::learn(Addr dead_line, Addr successor)
{
    CorrEntry *const set = corrSet(dead_line);
    const std::uint64_t key =
        (dead_line >> 5) * 0x9e3779b97f4a7c15ull;
    CorrEntry *victim = set;
    for (unsigned w = 0; w < _p.corr_assoc; ++w) {
        CorrEntry &e = set[w];
        if (e.key == key) {
            victim = &e;
            break;
        }
        if (e.stamp < victim->stamp)
            victim = &e;
    }
    victim->key = key;
    victim->successor = static_cast<std::uint32_t>(successor >> 5);
    victim->stamp = ++_tick;
    ++table_writes;
}

void
Timekeeping::sweepSet(std::uint64_t set, Cycle now)
{
    // Check the resident line of this set for death; with the
    // direct-mapped baseline L1, set == frame.
    FrameState *const frames = &_frames[set << _frames_per_set_shift];
    for (std::uint64_t i = 0; i < (1u << _frames_per_set_shift); ++i) {
        FrameState &f = frames[i];
        if (f.line == invalid_addr)
            continue;
        const Cycle idle =
            now > f.last_access ? quantize(now - f.last_access) : 0;
        if (idle < _p.threshold)
            continue;
        ++table_reads;
        if (CorrEntry *e = findCorr(f.line)) {
            const Addr target = static_cast<Addr>(e->successor) << 5;
            issueBufferFetch(_queue, *_buffer, target, now);
            // One prediction per death: reset the generation clock
            // only when a prediction was actually made.
            f.last_access = now;
        }
    }
}

void
Timekeeping::cacheAccess(CacheLevel lvl, const MemRequest &req,
                         bool hit, bool first_use)
{
    (void)first_use;
    if (lvl != CacheLevel::L1D)
        return;
    const Addr line = l1LineAddr(req.addr);
    if (hit) {
        FrameState &f = _frames[lineIndex(line) & _frame_mask];
        f.line = line;
        f.last_access = req.when;
    }
    // The fixed build checks liveness continuously (each access
    // advances the conceptual clock); the initial build only on
    // misses, which is late.
    if (_fixed || !hit) {
        const std::uint64_t set = lineIndex(line) & _l1_set_mask;
        // Sweep a rotating neighbour set too, emulating the
        // background refresh walk.
        sweepSet(set, req.when);
        sweepSet((set + (_tick++ & _l1_set_mask)) & _l1_set_mask,
                 req.when);
    }
}

void
Timekeeping::cacheEvict(CacheLevel lvl, Addr line, bool dirty,
                        Cycle now)
{
    (void)dirty;
    (void)now;
    if (lvl != CacheLevel::L1D)
        return;
    _pending_evict[lineIndex(line) & _l1_set_mask] = line;
}

void
Timekeeping::cacheRefill(CacheLevel lvl, Addr line, AccessKind cause,
                         Cycle now)
{
    (void)cause;
    if (lvl != CacheLevel::L1D)
        return;
    const std::uint64_t set = lineIndex(line) & _l1_set_mask;
    const Addr dead = _pending_evict[set];
    if (dead != invalid_addr && dead != line) {
        learn(dead, line);
        _pending_evict[set] = invalid_addr;
    }
    FrameState &f = _frames[lineIndex(line) & _frame_mask];
    f.line = line;
    f.last_access = now;
}

bool
Timekeeping::cacheMissProbe(CacheLevel lvl, Addr line, Cycle now,
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
Timekeeping::hardware() const
{
    const std::uint64_t l1_lines =
        hier() ? hier()->params().l1d.size / hier()->params().l1d.line
               : 1024;
    return {
        {"tk.correlation", _p.corr_bytes, _p.corr_assoc, 1},
        {"tk.counters", l1_lines * 2, 1, 1}, // per-line timers
        {"tk.buffer",
         _p.buffer_lines * (hier() ? hier()->params().l1d.line : 32),
         0, 1},
    };
}

void
Timekeeping::describe(ParamTable &t) const
{
    t.section("Timekeeping Prefetcher");
    t.add("Address Correlation",
          std::to_string(_p.corr_bytes / 1024) + "KB, " +
              std::to_string(_p.corr_assoc) + "-way");
    t.add("TK refresh", _p.refresh);
    t.add("TK threshold", _p.threshold);
    t.add("Request Queue Size", _p.request_queue);
    t.add("Variant", _fixed ? "confirmed" : "second-guessed");
}

} // namespace microlib

#include "cpu/ooo_core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace microlib
{

OoOCore::OoOCore(const CoreParams &p) : _p(p), _fu(p.fu)
{
    if (p.ruu_size == 0 || p.lsq_size == 0 || p.fetch_width == 0 ||
        p.commit_width == 0)
        fatal("core parameters must be non-zero");
    if (p.ruu_size > history || p.lsq_size > history)
        fatal("RUU/LSQ larger than the core's history ring");
    _complete.resize(history);
    _dispatch.resize(history);
    _commit.resize(history);
    _mem_complete.resize(history);
}

bool
OoOCore::deterministicMispredict(Addr pc, std::uint64_t n, double rate)
{
    // splitmix64 finalizer over (pc, occurrence index).
    std::uint64_t z = pc * 0x9e3779b97f4a7c15ull + n;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    const double u =
        static_cast<double>(z >> 11) * 0x1.0p-53;
    return u < rate;
}

void
OoOCore::beginRun(std::size_t n, Hierarchy &mem)
{
    _run = RunState{};
    _run.n = n;
    _run.res.instructions = n;
    _run.icache_line = mem.params().l1i.line;
    if (n == 0)
        return;

    _fu.reset();
    std::fill(_complete.begin(), _complete.end(), 0);
    std::fill(_dispatch.begin(), _dispatch.end(), 0);
    std::fill(_commit.begin(), _commit.end(), 0);
    std::fill(_mem_complete.begin(), _mem_complete.end(), 0);
}

void
OoOCore::stepBlock(const TraceView &trace, Hierarchy &mem,
                   std::size_t base, std::size_t len)
{
    if (base != _run.pos || len == 0 || base + len > _run.n)
        fatal("OoOCore::stepBlock: blocks must be fed in order "
              "(expected base ", _run.pos, ", got [", base, ", ",
              base + len, ") of ", _run.n, ")");

    // The carried run context lives in locals for the duration of the
    // block.
    CoreResult &res = _run.res;
    const std::uint64_t icache_line = _run.icache_line;
    Addr last_fetch_line = _run.last_fetch_line;
    Cycle fetch_release = _run.fetch_release;
    std::uint64_t mem_ops = _run.mem_ops;

    // Per-block span cursors: six dense streams, each advancing
    // one element per instruction.
    const std::uint32_t *const pc = trace.pc + base;
    const std::uint32_t *const addr = trace.addr + base;
    const OpClass *const op = trace.op + base;
    const std::uint8_t *const dep1 = trace.dep1 + base;
    const std::uint8_t *const dep2 = trace.dep2 + base;

    for (std::size_t k = 0; k < len; ++k) {
        const std::size_t i = base + k;
        const std::size_t slot = i % history;
        const OpClass o = op[k];
        const bool is_load = o == OpClass::Load;
        const bool is_store = o == OpClass::Store;

        // ------------------------------------------------ dispatch
        Cycle d = fetch_release;
        if (i >= _p.fetch_width)
            d = std::max(d, _dispatch[(i - _p.fetch_width) % history] + 1);
        if (i >= _p.ruu_size)
            d = std::max(d, _commit[(i - _p.ruu_size) % history]);
        if ((is_load || is_store) && mem_ops >= _p.lsq_size) {
            // LSQ entry frees when the older memory op's data moved.
            d = std::max(
                d, _mem_complete[(mem_ops - _p.lsq_size) % history]);
        }

        // Instruction fetch: only line changes touch the L1I.
        const Addr fetch_line = alignDown(pc[k], icache_line);
        if (fetch_line != last_fetch_line) {
            d = mem.ifetch(pc[k], d);
            last_fetch_line = fetch_line;
        }
        _dispatch[slot] = d;

        // --------------------------------------------------- ready
        Cycle ready = d + 1; // rename/dispatch pipeline stage
        if (dep1[k] && dep1[k] <= i)
            ready = std::max(ready,
                             _complete[(i - dep1[k]) % history]);
        if (dep2[k] && dep2[k] <= i)
            ready = std::max(ready,
                             _complete[(i - dep2[k]) % history]);

        // ----------------------------------------- issue & execute
        const Cycle issue = _fu.acquire(o, ready);
        Cycle complete;
        switch (o) {
          case OpClass::Load:
            complete = mem.load(addr[k], pc[k],
                                issue + _fu.latency(OpClass::Load));
            ++res.loads;
            break;
          case OpClass::Store:
            // Value is produced at issue; memory is updated at commit
            // (see below). Dependents wait only for address+data.
            complete = issue + _fu.latency(OpClass::Store);
            ++res.stores;
            break;
          default:
            complete = issue + _fu.latency(o);
            break;
        }
        _complete[slot] = complete;

        // -------------------------------------------------- commit
        Cycle commit = complete;
        if (i >= 1)
            commit = std::max(commit, _commit[(i - 1) % history]);
        if (i >= _p.commit_width)
            commit = std::max(
                commit, _commit[(i - _p.commit_width) % history] + 1);
        _commit[slot] = commit;

        // Retiring stores update the cache (posted write): the LSQ
        // entry frees at commit; the store's cache occupancy effects
        // still happen, but the core never waits on them.
        if (is_store) {
            mem.store(addr[k], pc[k], commit);
            _mem_complete[mem_ops % history] = commit;
            ++mem_ops;
        } else if (is_load) {
            _mem_complete[mem_ops % history] = complete;
            ++mem_ops;
        }

        // ------------------------------------------------ branches
        if (o == OpClass::Branch) {
            ++res.branches;
            if (deterministicMispredict(pc[k], res.branches,
                                        _p.mispredict_rate)) {
                ++res.mispredicts;
                fetch_release = std::max(
                    fetch_release, complete + _p.mispredict_penalty);
                last_fetch_line = invalid_addr; // redirected fetch
            }
        }
    }

    _run.last_fetch_line = last_fetch_line;
    _run.fetch_release = fetch_release;
    _run.mem_ops = mem_ops;
    _run.pos = base + len;
}

CoreResult
OoOCore::finishRun()
{
    CoreResult res = _run.res;
    if (_run.n == 0)
        return res;
    if (_run.pos != _run.n)
        fatal("OoOCore::finishRun: run stopped at record ", _run.pos,
              " of ", _run.n);
    res.cycles = _commit[(_run.n - 1) % history];
    if (res.cycles == 0)
        res.cycles = 1;
    res.ipc = static_cast<double>(res.instructions) /
              static_cast<double>(res.cycles);
    return res;
}

CoreResult
OoOCore::run(const TraceView &trace, Hierarchy &mem)
{
    const std::size_t n = trace.size();
    beginRun(n, mem);
    for (std::size_t base = 0; base < n; base += block_size)
        stepBlock(trace, mem, base, std::min(block_size, n - base));
    return finishRun();
}

} // namespace microlib

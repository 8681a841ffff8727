#include "mem/sdram.hh"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sim/logging.hh"

namespace microlib
{

void
SdramParams::scaleTimings(double factor)
{
    auto scale = [factor](Cycle c) {
        return static_cast<Cycle>(
            std::max(1.0, std::round(static_cast<double>(c) * factor)));
    };
    ras_to_ras = scale(ras_to_ras);
    ras_active = scale(ras_active);
    ras_to_cas = scale(ras_to_cas);
    cas_latency = scale(cas_latency);
    ras_precharge = scale(ras_precharge);
    ras_cycle = scale(ras_cycle);
}

SdramQueue::SdramQueue(unsigned entries) : _entries(entries)
{
    // Never more than `entries` in flight: reserving them here keeps
    // the per-access admit/retire path allocation-free.
    _heap.reserve(entries);
}

Cycle
SdramQueue::admit(Cycle when)
{
    // Drop retired entries: they sit at the front of the min-heap.
    while (!_heap.empty() && _heap.front() <= when) {
        std::pop_heap(_heap.begin(), _heap.end(), std::greater<>{});
        _heap.pop_back();
    }
    if (_heap.size() < _entries)
        return when;

    // Wait for the oldest in-flight request; every entry left
    // completes after `when`.
    const Cycle start = _heap.front();
    std::pop_heap(_heap.begin(), _heap.end(), std::greater<>{});
    _heap.pop_back();
    return start;
}

void
SdramQueue::retire(Cycle completion)
{
    _heap.push_back(completion);
    std::push_heap(_heap.begin(), _heap.end(), std::greater<>{});
}

Sdram::Sdram(const SdramParams &p, Bus *fsb) : _p(p), _fsb(fsb),
    _banks(p.banks), _queue(p.queue_entries)
{
    if (!isPowerOfTwo(p.banks))
        fatal("SDRAM '", p.name, "': bank count must be a power of two");
    if (!isPowerOfTwo(p.rows) || !isPowerOfTwo(p.columns) ||
        !isPowerOfTwo(p.column_bytes) || !isPowerOfTwo(p.line_bytes))
        fatal("SDRAM '", p.name, "': rows (", p.rows, "), columns (",
              p.columns, "), column bytes (", p.column_bytes,
              ") and line bytes (", p.line_bytes,
              ") must be powers of two");
    const std::uint64_t row_bytes = std::uint64_t{p.columns} *
                                    p.column_bytes;
    if (p.line_bytes > row_bytes)
        fatal("SDRAM '", p.name, "': a ", p.line_bytes,
              "-byte line does not fit a ", row_bytes, "-byte row");
    if (p.queue_entries == 0)
        fatal("SDRAM '", p.name, "': controller queue needs entries");
    if (p.scheduler_rows == 0)
        fatal("SDRAM '", p.name, "': scheduler needs at least one row");
    for (auto &b : _banks)
        b.slots.resize(p.scheduler_rows);
    _line_shift = floorLog2(p.line_bytes);
    _bank_shift = floorLog2(p.banks);
    _row_lines_shift = floorLog2(row_bytes / p.line_bytes);
    _columns_per_line = p.line_bytes / p.column_bytes;
}

Sdram::Decoded
Sdram::decode(Addr addr) const
{
    // Line-interleaved mapping: consecutive cache lines go to
    // consecutive banks, rows span (columns x column_bytes) bytes of
    // one bank.
    const std::uint64_t line_idx = addr >> _line_shift;
    const std::uint64_t bank_mask = _p.banks - 1;

    Decoded d;
    d.bank = static_cast<unsigned>(line_idx & bank_mask);
    const std::uint64_t in_bank = line_idx >> _bank_shift;
    d.row = (in_bank >> _row_lines_shift) & (_p.rows - 1);
    d.column = (in_bank & ((std::uint64_t{1} << _row_lines_shift) - 1)) *
               _columns_per_line;

    if (_p.mapping == DramMapping::PermutationInterleave) {
        // Zhang/Zhu/Zhang MICRO'00: XOR low row bits into the bank
        // index so same-stride streams spread across banks instead of
        // ping-ponging one row buffer.
        d.bank = static_cast<unsigned>((d.bank ^ d.row) & bank_mask);
    }
    return d;
}

Cycle
Sdram::access(const MemRequest &req)
{
    const bool is_write = req.kind == AccessKind::DemandWrite ||
                          req.kind == AccessKind::Writeback;
    if (is_write)
        ++writes;
    else
        ++reads;

    const Cycle t = _queue.admit(req.when);
    if (t != req.when)
        ++queue_stalls;

    const Decoded d = decode(req.addr);
    BankState &bank = _banks[d.bank];

    Cycle cmd = std::max(t, bank.ready);

    // Scheduler row batching: a row recently serviced in this bank is
    // treated as still open — the controller queue groups same-row
    // requests back-to-back even when streams interleave.
    RowSlot *hit_slot = nullptr;
    for (auto &slot : bank.slots) {
        if (slot.valid && slot.row == d.row &&
            cmd - slot.last_use <= _p.scheduler_window) {
            hit_slot = &slot;
            break;
        }
    }

    if (hit_slot) {
        // Row hit: CAS only.
        ++row_hits;
        hit_slot->last_use = cmd;
    } else {
        // Need an activate; maybe a precharge first.
        Cycle act = cmd;
        if (bank.any_open) {
            ++row_conflicts;
            ++precharges;
            // Precharge may not start before tRAS after activation.
            const Cycle pre_start =
                std::max(cmd, bank.last_activate + _p.ras_active);
            act = pre_start + _p.ras_precharge;
        } else {
            ++row_empty;
        }
        // tRC: activate-to-activate in the same bank;
        // tRRD: activate-to-activate across banks.
        if (bank.ever_activated)
            act = std::max(act, bank.last_activate + _p.ras_cycle);
        if (_any_activated)
            act = std::max(act, _last_activate_any + _p.ras_to_ras);
        ++activates;
        bank.last_activate = act;
        bank.ever_activated = true;
        _last_activate_any = act;
        _any_activated = true;
        bank.any_open = true;

        // Install in the least-recently-used scheduler slot.
        RowSlot *victim = &bank.slots[0];
        for (auto &slot : bank.slots) {
            if (!slot.valid) {
                victim = &slot;
                break;
            }
            if (slot.last_use < victim->last_use)
                victim = &slot;
        }
        victim->row = d.row;
        victim->valid = true;
        victim->last_use = act;

        cmd = act + _p.ras_to_cas;
    }

    const Cycle data_at_pins = cmd + _p.cas_latency;

    // Data burst over the shared front-side bus.
    Cycle done = data_at_pins;
    if (_fsb)
        done = _fsb->transfer(data_at_pins, _p.line_bytes);

    bank.ready = cmd + 1; // command bus pipelining within the bank

    _queue.retire(done);
    if (!is_write)
        latency.sample(static_cast<double>(done - req.when));
    return done;
}

void
Sdram::registerStats(StatSet &stats) const
{
    const std::string n = _p.name;
    stats.registerCounter(n + ".reads", &reads);
    stats.registerCounter(n + ".writes", &writes);
    stats.registerCounter(n + ".row_hits", &row_hits);
    stats.registerCounter(n + ".row_conflicts", &row_conflicts);
    stats.registerCounter(n + ".row_empty", &row_empty);
    stats.registerCounter(n + ".precharges", &precharges);
    stats.registerCounter(n + ".activates", &activates);
    stats.registerCounter(n + ".queue_stalls", &queue_stalls);
    stats.registerAverage(n + ".latency", &latency);
}

} // namespace microlib

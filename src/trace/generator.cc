#include "trace/generator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace microlib
{

SpecGenerator::SpecGenerator(const SpecProgram &prog) : _prog(prog),
    _rng(prog.seed), _dep_draw(prog.dep_mean),
    _compute_draw((1.0 - prog.mem_ratio) / prog.mem_ratio + 0.01)
{
    if (_prog.kernels.empty() || _prog.segments.empty())
        fatal("program '", _prog.name, "' has no kernels or segments");
    if (_prog.loop_from >= _prog.segments.size())
        fatal("program '", _prog.name, "': loop_from out of range");
    for (const auto &seg : _prog.segments)
        if (seg.kernel >= _prog.kernels.size())
            fatal("program '", _prog.name, "': segment kernel index");
    reset();
}

void
SpecGenerator::reset()
{
    _rng = Rng(_prog.seed);
    _image = std::make_unique<MemoryImage>();
    _kernels.clear();
    for (const auto &make : _prog.kernels) {
        _kernels.push_back(make());
        _kernels.back()->setup(*_image, _rng);
    }
    // A later kernel's setup() may write an earlier one's region, so
    // kernels see the image only once it is complete.
    _watchers.clear();
    for (const auto &kernel : _kernels) {
        const auto [first, last] = kernel->attach(*_image);
        if (first < last)
            _watchers.push_back({first, last - first, kernel.get()});
    }
    _segment = 0;
    _segment_left = _prog.segments[0].instructions;
    _emitted = 0;
    _last_load.fill(0);
    _stack_pos = 0;
    _segment_visits = 0;
    _block.clear();
    _block_pos = 0;
}

void
SpecGenerator::advanceSegment()
{
    _segment = _segment + 1;
    ++_segment_visits;
    if (_segment >= _prog.segments.size())
        _segment = _prog.loop_from;
    _segment_left = _prog.segments[_segment].instructions;
}

template <bool Emit>
OpClass
SpecGenerator::computeOp()
{
    if constexpr (Emit) {
        // Both outcomes take exactly two draws, so the choice is made
        // without branches: the draws are unpredictable.
        static constexpr OpClass ops[2][2] = {
            {OpClass::IntAlu, OpClass::IntMult},
            {OpClass::FpAlu, OpClass::FpMult},
        };
        const bool fp = _rng.chance(_prog.fp_frac);
        const bool mult = _rng.chance(fp ? 0.3 : 0.05);
        return ops[fp][mult];
    } else {
        _rng.next();
        _rng.next();
        return OpClass::IntAlu;
    }
}

template <bool Emit>
std::uint8_t
SpecGenerator::depDistance()
{
    if constexpr (Emit) {
        const std::uint64_t d = _rng.nextGeometric(_dep_draw);
        return static_cast<std::uint8_t>(std::min<std::uint64_t>(d, 255));
    } else {
        _rng.skipGeometric(_dep_draw);
        return 0;
    }
}

template <bool Emit>
SpecGenerator::BlockShape
SpecGenerator::buildBlock()
{
    if constexpr (Emit) {
        _block.clear();
        _block_pos = 0;
    }

    const unsigned kernel_idx = _prog.segments[_segment].kernel;
    PatternKernel &kernel = *_kernels[kernel_idx];

    // Most references go to the stack/locals region (high locality);
    // the phase kernel supplies the characteristic miss traffic.
    MemRef ref;
    bool is_stack = _rng.chance(_prog.stack_frac);
    if (is_stack) {
        ref.addr = stack_base + _stack_pos;
        // Small forward/backward wobble around a slowly advancing
        // frame pointer: intense line reuse, as real locals show.
        _stack_pos = (_stack_pos + 8 * _rng.nextBounded(3)) %
                     _prog.stack_bytes;
        ref.slot = 7; // dedicated static site
        if (_rng.chance(0.35)) {
            ref.store = true;
            // Locals mix small constants with addresses and floats.
            if (_rng.chance(0.6))
                ref.store_value = frequentValue(
                    static_cast<unsigned>(_rng.nextBounded(7)));
            else
                ref.store_value =
                    MemoryImage::defaultValue(ref.addr) ^ _rng.next();
        }
    } else {
        ref = kernel.next(*_image, _rng);
    }

    // Static code identity of this block: kernel site x code spread.
    // The spread copy changes per phase visit, not per block, so a
    // site keeps one PC for long stretches (PC-indexed mechanisms
    // rely on that) while programs like gcc still touch a large
    // instruction footprint over time.
    const unsigned spread =
        static_cast<unsigned>(_segment_visits % _prog.code_spread);
    const std::uint32_t block_id =
        static_cast<std::uint32_t>(kernel_idx * 256 + ref.slot * 37 +
                                   spread * 11);
    const std::uint32_t pc_base =
        static_cast<std::uint32_t>(code_base) + block_id * 128;
    // Basic-block identity excludes the spread copy: a phase's BBV
    // signature must be stable across visits or SimPoint cannot
    // recognize recurring phases.
    const std::uint16_t bb = static_cast<std::uint16_t>(
        (kernel_idx * 131 + ref.slot * 17) & 0x03ff);

    // Number of compute instructions accompanying one memory access.
    const unsigned n_compute = static_cast<unsigned>(
        std::min<std::uint64_t>(_rng.nextGeometric(_compute_draw),
                                max_compute));

    std::uint32_t pc = pc_base;
    const std::uint64_t mem_index_in_block = n_compute / 2;
    bool emitted_mem = false;

    // Without Emit, rec is never stored: the compiler drops its
    // fields, and only the draws and state updates remain.
    for (unsigned i = 0; i <= n_compute; ++i) {
        TraceRecord rec;
        rec.pc = pc;
        pc += 4;
        rec.bb = bb;
        const std::uint64_t global_idx = _emitted + i;

        if (!emitted_mem && i == mem_index_in_block) {
            emitted_mem = true;
            rec.op = ref.store ? OpClass::Store : OpClass::Load;
            // Stable PC for the static reference site: PC-indexed
            // mechanisms (SP, GHB, DBCP) must see one PC per site,
            // independent of how much compute preceded it.
            rec.pc = pc_base + 124;
            rec.addr = static_cast<std::uint32_t>(ref.addr);
            if (ref.store) {
                rec.value = ref.store_value;
                _image->write(ref.addr, ref.store_value);
                for (const Watcher &w : _watchers)
                    if (ref.addr - w.base < w.bytes)
                        w.kernel->stored(ref.addr, ref.store_value);
            } else if constexpr (Emit) {
                rec.value = _image->read(ref.addr);
            }
            const std::size_t dep_key =
                ref.dep_key % _last_load.size();
            if (ref.serial_dep && _last_load[dep_key] < global_idx) {
                // Pointer chase: the address depends on the previous
                // load's value (of the same dependence chain — see
                // MemRef::dep_key) — the defining serialization of
                // mcf-like codes.
                const std::uint64_t dist =
                    global_idx - _last_load[dep_key];
                rec.dep1 = static_cast<std::uint8_t>(
                    std::min<std::uint64_t>(dist, 255));
            } else if (ref.store) {
                // The stored value comes from recent computation.
                rec.dep1 = depDistance<Emit>();
            } else {
                // Streaming/indexed loads: addresses come from cheap
                // induction chains that never stall, so the load
                // itself has no blocking input — memory-level
                // parallelism is bounded by the window and MSHRs,
                // not by accidental load-to-load chains.
                rec.dep1 = 0;
            }
            if (!ref.store)
                _last_load[dep_key] = global_idx;
        } else {
            rec.op = computeOp<Emit>();
            // Consumers often use the most recent load's result.
            const bool after_mem =
                emitted_mem && i == mem_index_in_block + 1;
            if constexpr (Emit) {
                if (after_mem && _rng.chance(0.5))
                    rec.dep1 = 1;
                else
                    rec.dep1 = depDistance<Emit>();
                if (_rng.chance(0.4))
                    rec.dep2 = depDistance<Emit>();
            } else {
                // The same draws; the two random conditions pick
                // skipped steps without a branch.
                _rng.skipGeometricIf(!(after_mem && _rng.chance(0.5)),
                                     _dep_draw);
                _rng.skipGeometricIf(_rng.chance(0.4), _dep_draw);
            }
        }
        if constexpr (Emit)
            _block.push_back(rec);
    }

    std::uint64_t len = n_compute + 1;
    if (_rng.chance(_prog.branch_frac)) {
        if constexpr (Emit) {
            TraceRecord br;
            br.op = OpClass::Branch;
            br.pc = pc;
            br.bb = bb;
            br.dep1 = 1;
            _block.push_back(br);
        }
        ++len;
    }
    return {bb, len};
}

SpecGenerator::BlockShape
SpecGenerator::skipBlock()
{
    const BlockShape b = buildBlock<false>();
    _emitted += b.len;
    // next()'s per-record segment countdown, for the whole block:
    // the block was drawn in the segment it began in, and a
    // boundary inside it takes effect from the next block on, as it
    // does in next().
    std::uint64_t left = b.len;
    while (left > 0 && _segment_left > 0) {
        if (left < _segment_left) {
            _segment_left -= left;
            break;
        }
        left -= _segment_left;
        advanceSegment();
    }
    return b;
}

void
SpecGenerator::next(TraceRecord &rec)
{
    if (_block_pos >= _block.size())
        buildBlock<true>();
    rec = _block[_block_pos++];
    ++_emitted;
    if (_segment_left > 0 && --_segment_left == 0)
        advanceSegment();
}

void
SpecGenerator::skip(std::uint64_t n)
{
    advance(n, [](std::uint16_t, std::uint64_t) {});
}

} // namespace microlib

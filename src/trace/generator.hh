/**
 * @file
 * Synthetic benchmark programs and the trace generator.
 *
 * A SpecProgram describes one SPEC CPU2000 stand-in: a set of pattern
 * kernels, a segment script (which kernel runs for how many
 * instructions, with a loop-back point so initialization phases run
 * once), and scalar knobs for instruction mix, dependence structure
 * and code footprint. SpecGenerator turns a program into an infinite,
 * deterministic stream of TraceRecords backed by a functional
 * MemoryImage.
 */

#ifndef MICROLIB_TRACE_GENERATOR_HH
#define MICROLIB_TRACE_GENERATOR_HH

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/random.hh"
#include "trace/kernels.hh"
#include "trace/memory_image.hh"
#include "trace/record.hh"

namespace microlib
{

/** Base of the synthetic code segment (instruction PCs). */
constexpr Addr code_base = 0x00400000;

/** Base of the stack/locals region (below the heap, see
 *  SpecProgram::stack_frac). */
constexpr Addr stack_base = 0x08000000;

/** One phase of a program: run kernel @c kernel for @c instructions. */
struct Segment
{
    unsigned kernel;
    std::uint64_t instructions;
};

/** Full description of a synthetic benchmark. */
struct SpecProgram
{
    std::string name;
    std::uint64_t seed = 1;

    /** Fraction of dynamic instructions that are loads/stores. */
    double mem_ratio = 0.3;
    /**
     * Fraction of memory references that hit the "stack": a small
     * high-locality region of locals, spills and temporaries. Real
     * programs direct most references there, which is what keeps
     * SPEC L1 miss rates in the single digits; the pattern kernels
     * provide the *miss* behaviour on top.
     */
    double stack_frac = 0.55;
    /** Stack region size (fits comfortably in the L1). */
    std::uint64_t stack_bytes = 8 * 1024;
    /** Fraction of compute instructions that are floating point. */
    double fp_frac = 0.0;
    /** Probability that a block ends with a branch instruction. */
    double branch_frac = 0.15;
    /** Mean register dependence distance of compute instructions. */
    double dep_mean = 3.0;
    /** Number of distinct static code copies (I-footprint knob;
     *  large values emulate gcc-like instruction working sets). */
    unsigned code_spread = 4;

    /** Nominal full-run length in instructions (BBV profiling and
     *  trace-selection experiments run over this length). */
    std::uint64_t nominal_length = 16'000'000;

    /** Kernel factories; instantiated fresh on each reset. */
    std::vector<std::function<std::unique_ptr<PatternKernel>()>> kernels;

    /** Phase script; after the last segment, execution loops back to
     *  segment @c loop_from. */
    std::vector<Segment> segments;
    unsigned loop_from = 0;
};

/**
 * Deterministic trace generator for one SpecProgram.
 *
 * The generator emits small basic blocks: a run of compute
 * instructions, one memory reference produced by the active kernel,
 * and an optional closing branch. Reference sites map to stable PCs
 * so PC-indexed mechanisms (stride prefetching, GHB) see the static
 * load sites they expect.
 */
class SpecGenerator
{
  public:
    explicit SpecGenerator(const SpecProgram &prog);

    /** Restart from instruction zero; rebuilds the memory image. */
    void reset();

    /** Produce the next instruction. */
    void next(TraceRecord &rec);

    /**
     * Skip @p n instructions. Whole blocks are fast-forwarded (see
     * advance()): they make the same Rng draws and image writes as
     * next() but build no records, so a later next() continues
     * exactly where n calls of next() would have left it.
     */
    void skip(std::uint64_t n);

    /** Most records one block holds: max_compute compute
     *  instructions, the memory reference and a closing branch. */
    static constexpr std::uint64_t max_block = 50;

    /**
     * Advance exactly @p n instructions, reporting them as
     * @p fn(bb, len) runs of @c len instructions of basic block
     * @c bb (the bb field next() would have emitted). While at least
     * one maximal block remains, whole blocks are fast-forwarded:
     * the block builder makes its Rng draws, image writes and
     * kernel, stack, dependence and segment updates in next()'s
     * order, but writes no records, reads no load values and draws
     * no unread values (a dependence distance costs one raw Rng
     * step), calling @p fn once per block. The records of a block
     * already begun and the final tail go through next(), one
     * call each.
     */
    template <typename Fn>
    void
    advance(std::uint64_t n, Fn &&fn)
    {
        TraceRecord rec;
        for (; n > 0 && _block_pos < _block.size(); --n) {
            next(rec);
            fn(rec.bb, std::uint64_t(1));
        }
        while (n >= max_block) {
            const BlockShape b = skipBlock();
            fn(b.bb, b.len);
            n -= b.len;
        }
        for (; n > 0; --n) {
            next(rec);
            fn(rec.bb, std::uint64_t(1));
        }
    }

    const SpecProgram &program() const { return _prog; }
    const MemoryImage &image() const { return *_image; }
    std::uint64_t emitted() const { return _emitted; }

    /** Hand the memory image over to the caller. The generator has
     *  no image afterwards: only reset() makes it usable again. */
    std::unique_ptr<MemoryImage> releaseImage()
    {
        return std::move(_image);
    }

  private:
    const SpecProgram _prog;
    Rng _rng;
    /** Dependence-distance draw (mean dep_mean). */
    const Rng::Geometric _dep_draw;
    /** Compute instructions per memory reference, drawn so that the
     *  long-run memory-instruction fraction matches mem_ratio. */
    const Rng::Geometric _compute_draw;
    std::unique_ptr<MemoryImage> _image;
    std::vector<std::unique_ptr<PatternKernel>> _kernels;

    /** A kernel that caches image contents, and the range
     *  [base, base + bytes) whose stores it must see (attach()). */
    struct Watcher
    {
        Addr base;
        Addr bytes;
        PatternKernel *kernel;
    };
    /**
     * The kernels to tell of each store. After reset() the store in
     * buildBlock() is the image's only writer (kernels write it in
     * setup() alone, and next() only returns the stores it wants
     * made), so forwarding that one store keeps every cache exact.
     */
    std::vector<Watcher> _watchers;

    std::size_t _segment = 0;
    std::uint64_t _segment_left = 0;
    std::uint64_t _emitted = 0;
    /** Index of the last emitted load per dependence key
     *  (MemRef::dep_key); key 0 is every ordinary load. */
    std::array<std::uint64_t, 8> _last_load{};
    std::uint64_t _stack_pos = 0;   ///< rolling stack walk position
    std::uint64_t _segment_visits = 0; ///< phase instances so far

    /** Pending block records not yet handed out. */
    std::vector<TraceRecord> _block;
    std::size_t _block_pos = 0;

    /** Compute instructions per block, at most. */
    static constexpr unsigned max_compute = 48;
    static_assert(max_block == max_compute + 2);

    /** A built block: its length and basic-block id. */
    struct BlockShape
    {
        std::uint16_t bb;
        std::uint64_t len;
    };

    /** Draw the next block. With @p Emit its records go to _block;
     *  without, none are written (see advance()). Both make the same
     *  Rng draws and state updates, in the same order. */
    template <bool Emit> BlockShape buildBlock();
    /** Fast-forward one whole block and retire its instructions. */
    BlockShape skipBlock();
    void advanceSegment();
    template <bool Emit> OpClass computeOp();
    template <bool Emit> std::uint8_t depDistance();
};

} // namespace microlib

#endif // MICROLIB_TRACE_GENERATOR_HH

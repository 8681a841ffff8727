/**
 * @file
 * Trace-driven out-of-order core (the sim-outorder stand-in).
 *
 * Models the timing bottlenecks the paper's evaluation depends on —
 * a 128-entry RUU instruction window, a 128-entry LSQ, 8-wide
 * fetch/issue/commit, the Table 1 functional unit pool, in-order
 * commit, instruction-cache stalls and branch mispredictions — with
 * timestamp algebra: each dynamic instruction gets dispatch, ready,
 * issue, complete and commit cycles derived from its predecessors
 * and the memory hierarchy's resource state. Loads visit the
 * hierarchy at issue; stores write at commit (posted).
 */

#ifndef MICROLIB_CPU_OOO_CORE_HH
#define MICROLIB_CPU_OOO_CORE_HH

#include <vector>

#include "cpu/fu_pool.hh"
#include "mem/hierarchy.hh"
#include "sim/stats.hh"
#include "trace/trace_view.hh"

namespace microlib
{

/** Core configuration (Table 1 values as defaults). */
struct CoreParams
{
    unsigned ruu_size = 128;
    unsigned lsq_size = 128;
    unsigned fetch_width = 8;
    unsigned commit_width = 8;
    FuPoolParams fu;

    /** Branch misprediction rate and recovery penalty. The rate is a
     *  deterministic hash of (pc, occurrence) so every mechanism sees
     *  the same misprediction pattern on the same trace. */
    double mispredict_rate = 0.04;
    Cycle mispredict_penalty = 3;
};

/** Results of one simulation run. */
struct CoreResult
{
    std::uint64_t instructions = 0;
    Cycle cycles = 0;
    double ipc = 0.0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
};

/** The out-of-order core. */
class OoOCore
{
  public:
    explicit OoOCore(const CoreParams &p);

    /**
     * Run @p trace against @p mem and return timing results.
     * The core is reset first; the hierarchy is not (caller decides
     * warm/cold state).
     *
     * This is the hot path: the dependence-timestamp algebra and the
     * memory-hierarchy visits stream over the view's dense parallel
     * arrays in fixed-size blocks. Implemented on the block-resumable
     * API below (beginRun + stepBlock + finishRun), so the monolithic
     * and lockstep paths share one loop body. Golden per-cell digests
     * (tests/test_hot_path.cc) pin its results.
     */
    CoreResult run(const TraceView &trace, Hierarchy &mem);

    // ----- block-resumable stepping (lockstep execution) ---------
    //
    // A run can be advanced one block at a time, with the state a
    // single loop would keep in locals held in a member context
    // instead. LockstepGroup (cpu/lockstep.hh) interleaves the
    // blocks of several cores over a single pass of one shared
    // TraceView: one trace decode, V state machines per block. Block
    // boundaries carry no model state — any in-order decomposition
    // computes the identical result — so stepping is bit-identical
    // to run() by construction.

    /** Start a block-resumable run of @p n records against @p mem:
     *  resets the core and the in-flight run context. Allocation-free
     *  (the history rings are sized at construction). */
    void beginRun(std::size_t n, Hierarchy &mem);

    /**
     * Advance the in-flight run over records [@p base, @p base +
     * @p len) of @p trace. Blocks must be fed in order and cover the
     * trace exactly; @p mem must be the hierarchy beginRun() saw.
     */
    void stepBlock(const TraceView &trace, Hierarchy &mem,
                   std::size_t base, std::size_t len);

    /** Finish the in-flight run and return its results. */
    CoreResult finishRun();

    /** The fixed block length run() streams in — lockstep callers
     *  use the same decomposition. */
    static constexpr std::size_t blockSize() { return block_size; }

    const CoreParams &params() const { return _p; }

  private:
    CoreParams _p;
    FuPool _fu;

    /** History ring large enough for 255-distance dependences. */
    static constexpr std::size_t history = 512;

    /** Records streamed per block of the SoA loop: long enough to
     *  amortize the span pointer setup, short enough that the six
     *  live arrays stay resident in L1. */
    static constexpr std::size_t block_size = 256;

    std::vector<Cycle> _complete; // ring: completion per instruction
    std::vector<Cycle> _dispatch; // ring: dispatch per instruction
    std::vector<Cycle> _commit;   // ring: commit per instruction
    std::vector<Cycle> _mem_complete; // ring: per memory instruction

    /** In-flight state of a block-resumable run: everything a single
     *  loop would hold in locals, so a run survives between
     *  stepBlock() calls while other cores advance over the same
     *  trace. POD throughout — beginRun()'s reset never allocates. */
    struct RunState
    {
        CoreResult res;          ///< counters accumulated so far
        std::uint64_t icache_line = 1;
        Addr last_fetch_line = invalid_addr;
        Cycle fetch_release = 0; ///< earliest fetch after a mispredict
        std::uint64_t mem_ops = 0;
        std::size_t n = 0;       ///< total record count of the run
        std::size_t pos = 0;     ///< next base stepBlock() expects
    };
    RunState _run;

    static bool deterministicMispredict(Addr pc, std::uint64_t n,
                                        double rate);
};

} // namespace microlib

#endif // MICROLIB_CPU_OOO_CORE_HH

/**
 * @file
 * Lockstep multi-variant execution: advance several simulations over
 * one trace pass.
 *
 * A sensitivity sweep runs V near-identical configurations over the
 * same trace window. Executed independently, sweep cost scales as
 * V x trace length: every variant re-streams (and re-decodes) the
 * whole SoA trace through its own OoOCore::run pass. A LockstepGroup
 * instead takes ONE TraceView and V (core, hierarchy) members and
 * advances all V simulations block-by-block over a single pass: each
 * fixed-size block of the six parallel trace arrays is touched once
 * — hot in cache — while V state machines consume it, so trace decode
 * and memory traffic amortize across the group and only cache/core
 * state multiplies.
 *
 * Members never interact: each owns its core, hierarchy, mechanism
 * and statistics, and block boundaries carry no model state (see
 * OoOCore::stepBlock), so every member's CoreResult and stats are
 * bit-identical to the same configuration run alone — the per-variant
 * path is the oracle, asserted by tests/test_lockstep.cc. run() is
 * allocation-free in steady state; the member table is sized by
 * add() at setup time.
 *
 * No sweep runs through this any more: the thread-pool backend runs
 * every task alone through runOne(), because end to end the shared
 * pass did not pay (perfbench cpu.lockstep_speedup read 0.95-1.07 on
 * its matrix workload). The kernel, OoOCore's beginRun/stepBlock/
 * finishRun split, the experiment-layer fan-out over it
 * (core/experiment.hh), BM_LockstepVariants and the kernel tests
 * remain only because the repository benchmark (perfbench/) wraps
 * the kernel and the fan-out in its spans and times the fan-out in
 * its layer ladder. They are deleted once the benchmark stops using
 * them (ROADMAP item 7).
 */

#ifndef MICROLIB_CPU_LOCKSTEP_HH
#define MICROLIB_CPU_LOCKSTEP_HH

#include <cstddef>
#include <vector>

#include "cpu/ooo_core.hh"

namespace microlib
{

class Hierarchy;

/** V simulations advanced per block over one shared trace pass. */
class LockstepGroup
{
  public:
    /** Enroll a member; @p core and @p mem must outlive the group.
     *  May allocate (setup, not the hot path). */
    void add(OoOCore &core, Hierarchy &mem);

    std::size_t size() const { return _members.size(); }
    bool empty() const { return _members.empty(); }

    /** Drop all members (the group can be refilled and rerun). */
    void clear();

    /**
     * One pass over @p trace: beginRun every member, advance all of
     * them one OoOCore::blockSize() block at a time, finish. Results
     * are retrievable per member via result() until the next run().
     * Allocation-free.
     */
    void run(const TraceView &trace);

    /** Result of member @p i from the last run(). */
    const CoreResult &result(std::size_t i) const
    {
        return _results[i];
    }

  private:
    struct Member
    {
        OoOCore *core = nullptr;
        Hierarchy *mem = nullptr;
    };

    std::vector<Member> _members;
    std::vector<CoreResult> _results;
};

} // namespace microlib

#endif // MICROLIB_CPU_LOCKSTEP_HH

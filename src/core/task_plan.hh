/**
 * @file
 * TaskPlan: the deterministic description of a sweep, independent of
 * how (or where) it executes.
 *
 * A sweep is described by a SweepSpec: (benchmark x mechanism x
 * config variant), the variants being the expansion of the spec's
 * declared axes (core/sweep_spec.hh). The plan enumerates every task
 * of that cube in one canonical order (benchmark slowest, then
 * variant, then mechanism, so the tasks sharing a benchmark's trace
 * stay contiguous), assigns each task its stable flat index and its
 * pre-assigned SweepResult slot, and fingerprints it with the same
 * ResultKey the result store uses — each variant's key hashes that
 * variant's fully resolved configuration, so variants can never
 * collide. Because the enumeration is a pure function of the spec,
 * every process that builds the plan — a single-host run, each shard
 * of a multi-process sweep, a cluster launcher printing the task
 * list — agrees on task indices, slots and fingerprints without any
 * communication.
 *
 * That agreement is what makes sharding trivial: shard i of N is
 * simply the tasks whose index is congruent to i mod N, shard stores
 * merge record by record, and the merged result is bit-identical to a
 * single-process run because every task writes the same slot with the
 * same fingerprinted result no matter which process ran it.
 *
 * Variants that leave the trace window untouched share a benchmark's
 * materialized trace: the plan groups tasks into *trace slots* —
 * unique (benchmark, window) pairs — and execution backends refcount
 * those slots, so a window shared by eight L2-size variants is
 * materialized exactly once and released when the last of them
 * drains.
 *
 * The plan also owns the resume logic: prefill() fills every result
 * slot whose record already exists in a ResultStore and marks the
 * task done, so execution backends only ever see the missing tasks.
 */

#ifndef MICROLIB_CORE_TASK_PLAN_HH
#define MICROLIB_CORE_TASK_PLAN_HH

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/sweep_spec.hh"

namespace microlib
{

class ResultStore;
struct ResultKey;

/** Which slice of a plan a process executes: shard index of count.
 *  The default {0, 1} is the whole plan. */
struct ShardSpec
{
    std::size_t index = 0;
    std::size_t count = 1;

    bool whole() const { return count <= 1; }

    /** "i/N" (the CLI flag syntax). */
    std::string str() const;

    /** Parse "i/N" (0 <= i < N); false on malformed input. */
    static bool parse(const std::string &text, ShardSpec &out);
};

/** One task of the plan: a (mechanism, benchmark, variant) cell with
 *  its stable index — the slot assignment and the shard unit. */
struct PlanTask
{
    std::size_t index = 0; ///< flat index: (b * variants + v) * mechs + m
    std::size_t m = 0;     ///< row in the variant's MatrixResult
    std::size_t b = 0;     ///< column in the variant's MatrixResult
    std::size_t v = 0;     ///< which MatrixResult (config variant)
};

/** Deterministic, fingerprinted enumeration of one sweep. */
class TaskPlan
{
  public:
    /** Enumerate @p spec: benchmarks x mechanisms x variants. Every
     *  variant's config is resolved and hashed once
     *  (fingerprintConfig); trace slots are precomputed. */
    explicit TaskPlan(const SweepSpec &spec);

    /** Classic one-variant plan: @p mechanisms x @p benchmarks under
     *  @p cfg (wraps SweepSpec::single). Flat indices reduce to the
     *  historic b * mechanisms + m, so stores written by older
     *  sweeps resume unchanged. */
    TaskPlan(std::vector<std::string> mechanisms,
             std::vector<std::string> benchmarks, const RunConfig &cfg);

    const std::vector<std::string> &mechanisms() const
    {
        return _mechanisms;
    }
    const std::vector<std::string> &benchmarks() const
    {
        return _benchmarks;
    }

    /** The spec the plan was built from. */
    const SweepSpec &spec() const { return _spec; }

    /** Number of config variants (>= 1). */
    std::size_t variantCount() const { return _variant_names.size(); }

    /** Display name of variant @p v ("base" for a one-variant plan). */
    const std::string &variantName(std::size_t v) const
    {
        return _variant_names[v];
    }

    /** The resolved run configuration of variant @p v. */
    const RunConfig &config(std::size_t v = 0) const { return _cfgs[v]; }

    /** fingerprintConfig(config(v)), hashed once at construction. */
    std::uint64_t configHash(std::size_t v = 0) const
    {
        return _config_hashes[v];
    }

    /** Total task count (benchmarks x variants x mechanisms). */
    std::size_t size() const { return _tasks.size(); }
    bool empty() const { return _tasks.empty(); }

    const PlanTask &task(std::size_t index) const
    {
        return _tasks[index];
    }

    /** Number of unique (benchmark, trace window) pairs — the unit
     *  of trace materialization and refcounting. */
    std::size_t traceSlotCount() const { return _slot_keys.size(); }

    /** The trace slot task @p index draws its trace from. Variants
     *  sharing a window share the slot. */
    std::size_t traceSlot(std::size_t index) const
    {
        const PlanTask &t = _tasks[index];
        return _task_slot[t.b * variantCount() + t.v];
    }

    /** The trace-cache key of slot @p slot. */
    const std::string &slotKey(std::size_t slot) const
    {
        return _slot_keys[slot];
    }

    /** The result-store identity of task @p index (the variant's
     *  resolved config hash). */
    ResultKey resultKey(std::size_t index) const;

    /** A SweepResult with every variant's matrix allocated (and
     *  indices built) for this plan — the frame tasks write into. */
    SweepResult emptyResult() const;

    /** Stable shard assignment: task @p index belongs to shard
     *  (@p index mod @p shard.count). */
    static bool
    inShard(std::size_t index, const ShardSpec &shard)
    {
        return shard.whole() || index % shard.count == shard.index;
    }

    /** Indices of every task in @p shard, in plan order. Shards
     *  0..N-1 partition the plan: disjoint and exhaustive. */
    std::vector<std::size_t> shardTasks(const ShardSpec &shard) const;

    /** Indices of every task still to execute — not marked in
     *  @p done and inside @p shard — in plan order. The single
     *  source of truth for "what does this process run": backends,
     *  skip accounting and progress reporting must all agree with
     *  it. */
    std::vector<std::size_t>
    pendingTasks(const std::vector<char> &done,
                 const ShardSpec &shard) const;

    /**
     * Resume pre-fill: for every task whose fingerprinted record
     * exists in @p store, copy the record into its SweepResult slot
     * and set done[index]. @p done must have size() entries; already-
     * done tasks are left alone. Returns the number of tasks filled
     * by this call.
     */
    std::size_t prefill(const ResultStore &store, SweepResult &res,
                        std::vector<char> &done) const;

    /**
     * Settlement after a multi-process merge: every task of
     * @p quarantined still without a record (a record wins over a
     * misblame) gets its fault cell set in @p res, is marked in
     * @p done and is appended to @p settled, in ascending order.
     * Indices outside the plan are ignored. Returns the first task
     * then left without a record — size() when the plan is
     * complete; the caller throws its own error for it.
     */
    std::size_t settleQuarantined(std::vector<std::size_t> quarantined,
                                  SweepResult &res,
                                  std::vector<char> &done,
                                  std::vector<std::size_t> &settled) const;

    /**
     * Lockstep units: the pending tasks of @p shard grouped by
     * (trace slot, mechanism), i.e. the config variants of one
     * (benchmark-window, mechanism) cell that share a materialized
     * trace and can be advanced over it in a single lockstep pass
     * (cpu/lockstep.hh). Deterministic and resume/shard-transparent:
     * groups are ordered by their first pending member's plan index,
     * members within a group are in plan (variant) order, and a task
     * that is resumed or out of shard simply never appears — a
     * partially resumed group runs only its missing variants, and
     * the union of all groups is exactly pendingTasks(). A
     * variant whose settings move the window lands in a different
     * slot and therefore in its own group.
     */
    std::vector<std::vector<std::size_t>>
    lockstepGroups(const std::vector<char> &done,
                   const ShardSpec &shard) const;

    /**
     * Per-trace-slot count of tasks still to execute: not marked in
     * @p done and inside @p shard. Execution backends use this as the
     * trace refcount — a slot's trace becomes evictable exactly when
     * its count drains to zero, and a slot whose count starts at zero
     * is never materialized at all. Variants sharing a window are
     * counted in one slot, so a shared trace is materialized once.
     */
    std::vector<std::size_t>
    pendingPerTraceSlot(const std::vector<char> &done,
                        const ShardSpec &shard) const;

    /**
     * Per-benchmark count of tasks still to execute: not marked in
     * @p done and inside @p shard. Progress reporting groups by
     * benchmark (the unit a human watches), whatever the variant.
     */
    std::vector<std::size_t>
    pendingPerBenchmark(const std::vector<char> &done,
                        const ShardSpec &shard) const;

    /** One human/machine-readable line describing task @p index (the
     *  `microlib_sweep --plan` output format). */
    std::string describe(std::size_t index,
                         const ShardSpec &shard) const;

  private:
    SweepSpec _spec;
    std::vector<std::string> _mechanisms;
    std::vector<std::string> _benchmarks;
    std::vector<std::string> _variant_names;
    std::vector<RunConfig> _cfgs;             ///< resolved, per variant
    std::vector<std::uint64_t> _config_hashes; ///< per variant
    std::vector<std::size_t> _task_slot;       ///< [b * V + v] -> slot
    std::vector<std::string> _slot_keys;       ///< trace-cache keys
    std::vector<PlanTask> _tasks;
};

/**
 * Trace-cache key for (@p benchmark, @p cfg): the benchmark name plus
 * the canonical window description (windowKey), i.e. everything a
 * materialized trace depends on. Shared by the engine, the plan and
 * the result-store fingerprint so "same window" means one thing.
 */
std::string traceCacheKey(const std::string &benchmark,
                          const RunConfig &cfg);

} // namespace microlib

#endif // MICROLIB_CORE_TASK_PLAN_HH

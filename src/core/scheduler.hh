/**
 * @file
 * ExperimentEngine: the sweep-wide experiment driver.
 *
 * A sweep is described declaratively by a SweepSpec
 * (core/sweep_spec.hh): benchmarks x mechanisms x config variants
 * expanded from declared axes. A TaskPlan (core/task_plan.hh) turns
 * the spec into the deterministic, fingerprinted enumeration of every
 * (benchmark, mechanism, variant) task with its stable index and
 * pre-assigned result slot. The engine is the facade that ties a
 * plan to an execution strategy:
 *
 *   run(spec) = build TaskPlan
 *             + pre-fill resumed slots from the ResultStore
 *             + hand the pending tasks to an ExecutionBackend
 *
 * The default backend is ThreadPoolBackend (the in-process drain
 * loop over the engine's persistent worker pool); EngineOptions can
 * swap in ProcessShardBackend (forked shard workers, one store per
 * shard, merged record by record) or any custom ExecutionBackend.
 * EngineOptions::shard restricts an in-process run to one shard of
 * the plan — the `microlib_sweep --shard i/N` building block for
 * cluster-scale sweeps.
 *
 * Determinism contract, regardless of backend, worker count or shard
 * count: every task writes its pre-assigned (m, b, variant) slot of
 * the SweepResult with a result that is a pure function of the plan,
 * so the result is bit-identical for any MICROLIB_THREADS value and
 * for any shard partitioning whose stores are merged back together.
 * Scheduling affects wall-clock only, never results.
 *
 * The engine outlives individual matrices; traces (and SimPoint
 * choices) are shared across run() calls, so e.g. a finite- vs
 * infinite-MSHR study materializes each benchmark once, not twice.
 * With a ResultStore attached (EngineOptions::store), finished runs
 * are persisted as fingerprinted records and run() pre-fills matrix
 * slots whose record already exists, executing only the missing
 * tasks — the resume path an interrupted sweep takes on restart.
 */

#ifndef MICROLIB_CORE_SCHEDULER_HH
#define MICROLIB_CORE_SCHEDULER_HH

#include <memory>
#include <string>
#include <vector>

#include "core/execution_backend.hh"
#include "core/experiment.hh"
#include "sim/thread_pool.hh"
#include "trace/trace_cache.hh"

namespace microlib
{

class ResultStore;

/** Engine construction knobs. */
struct EngineOptions
{
    /** Worker threads including the caller; 0 = MICROLIB_THREADS or
     *  hardware concurrency. */
    unsigned threads = 0;

    /** Log each finished run plus a progress counter. */
    bool verbose = false;

    /**
     * Versioned result store (core/result_store.hh); not owned, may
     * be nullptr. When set, every finished run is persisted as a
     * fingerprinted record, and run() skips any task whose
     * fingerprint already has one — an interrupted or repeated sweep
     * resumes instead of restarting. Records from a different
     * configuration or schema never match, so stale results are
     * ignored rather than reused.
     */
    ResultStore *store = nullptr;

    /**
     * Execute only shard (index mod count) of the plan; pending
     * tasks outside the shard are counted as RunCounters::skipped
     * and their matrix slots stay empty unless the store resumed
     * them. The default {0, 1} runs the whole plan. Disjoint shards
     * run by separate processes/hosts against separate stores merge
     * bit-identically — see docs/SHARDING.md.
     */
    ShardSpec shard;

    /** JSONL progress stream path (core/progress.hh); empty =
     *  disabled. Truncated at each run(). */
    std::string progress_path;

    /**
     * Persistent trace-arena directory (trace/trace_arena.hh); empty
     * = read MICROLIB_TRACE_DIR (unset or empty = no arena, the
     * default). With an arena, trace owners probe the directory
     * before materializing — a hit mmaps the stored window read-only
     * (skipping generation AND SimPoint profiling) — and publish
     * what they had to generate, so the window is materialized once
     * per directory rather than once per process. Shard workers
     * inherit the parent's directory and share it concurrently.
     */
    std::string trace_dir;

    /** Execution strategy; not owned, may be nullptr = the engine's
     *  built-in ThreadPoolBackend. See core/execution_backend.hh. */
    ExecutionBackend *backend = nullptr;
};

/** Where a fulfilled trace came from (progress telemetry: the warm-
 *  arena acceptance check greps for the absence of src=gen). */
enum class TraceOrigin
{
    Generated, ///< materialized by this process (arena miss or none)
    Mapped,    ///< mmap'd straight out of the trace arena
};

/** Matrix-wide experiment driver over plan + backend. */
class ExperimentEngine
{
  public:
    explicit ExperimentEngine(EngineOptions opts = {});
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    /**
     * Run the sweep @p spec describes: benchmarks x mechanisms x
     * config variants. The primary entry point — every result lands
     * in its deterministic (m, b, variant) slot regardless of
     * backend, worker count or scheduling order. Tasks that share a
     * ResultKey execute once: later ones are copied from the first
     * and counted as resumed. Not reentrant: one run() at a time per
     * engine.
     */
    SweepResult run(const SweepSpec &spec);

    /** Run an already-built @p plan (shared by callers that also
     *  print or shard it). Same contract as run(). */
    SweepResult runPlan(const TaskPlan &plan);

    /**
     * The cached trace for (@p benchmark, @p cfg), materializing it
     * on first use. Configurations that resolve to the same window
     * share one materialization.
     */
    std::shared_ptr<const MaterializedTrace>
    trace(const std::string &benchmark, const RunConfig &cfg);

    /** Total worker count, the calling thread included. */
    unsigned threads() const { return _pool.size() + 1; }

    /** The engine's trace cache (tests and memory-conscious callers:
     *  cache().clear() releases all retained traces). */
    TraceCache &cache() { return _cache; }

    /** The engine's persistent worker pool (execution backends drain
     *  their task queues on it). */
    ThreadPool &pool() { return _pool; }

    /** The attached result store, or nullptr. */
    ResultStore *resultStore() const { return _opts.store; }

    /** The options the engine was built with. */
    const EngineOptions &options() const { return _opts; }

    /** Executed/resumed/skipped counts of the most recent run(). */
    RunCounters lastRun() const { return _last; }

    /**
     * Owner-side materialization: fulfill @p key in @p cache with
     * the trace for (@p benchmark, @p cfg), or fail the entry and
     * rethrow. Call only after claim() returned Owner. Shared by the
     * engine's trace() endpoint and the execution backends.
     *
     * With an arena attached to @p cache, the arena is probed FIRST
     * — before window resolution — so a hit skips SimPoint BBV
     * profiling along with generation (the stored file carries the
     * resolved window). A miss generates, publishes to the arena,
     * then re-loads the published file so the heap copy is released
     * in favor of the shared page-cache mapping. @p origin (when
     * non-null) reports which path ran.
     */
    static std::shared_ptr<const MaterializedTrace>
    materializeInto(TraceCache &cache, const std::string &key,
                    const std::string &benchmark, const RunConfig &cfg,
                    TraceOrigin *origin = nullptr);

  private:
    EngineOptions _opts;
    TraceCache _cache;
    ThreadPool _pool;
    RunCounters _last;
};

} // namespace microlib

#endif // MICROLIB_CORE_SCHEDULER_HH

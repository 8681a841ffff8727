/**
 * @file
 * ExecutionBackend: how a TaskPlan's pending tasks get run.
 *
 * The plan/backend split separates what a sweep IS (TaskPlan: the
 * deterministic, fingerprinted task enumeration) from how it is
 * EXECUTED. The engine builds the plan, pre-fills resumed slots from
 * the result store, and hands the remaining tasks to a backend:
 *
 *  - ThreadPoolBackend (thread_pool_backend.hh): the in-process
 *    drain loop over the engine's persistent worker pool — the
 *    default, and the leaf executor every other backend bottoms out
 *    in.
 *  - ProcessShardBackend (process_shard_backend.hh): partitions the
 *    plan into N shards by stable task index, runs each shard in a
 *    forked worker process with its own append-only store, and
 *    merges the shard stores back into the parent's.
 *
 * Every backend obeys the same contract: execute each task exactly
 * per plan slot, persist through the attached store before
 * publishing, and never let scheduling influence results — the
 * MatrixResult must be bit-identical across backends, worker counts
 * and shard counts.
 */

#ifndef MICROLIB_CORE_EXECUTION_BACKEND_HH
#define MICROLIB_CORE_EXECUTION_BACKEND_HH

#include <cstddef>
#include <vector>

#include "core/task_plan.hh"

namespace microlib
{

class ExperimentEngine;
class ProgressWriter;
struct EngineOptions;

/** What one run() actually did (resume/shard accounting). */
struct RunCounters
{
    std::size_t executed = 0; ///< runs simulated by this call
    std::size_t resumed = 0;  ///< runs restored from the store
    /** Runs left for other shards: pending tasks outside this
     *  process's ShardSpec. A whole-plan run always reports 0. */
    std::size_t skipped = 0;

    /** Store lines skipped as unreadable (torn tails from killed
     *  writers, checksum mismatches) while loading/merging results
     *  this run — durability telemetry, not missing tasks: a skipped
     *  line's task simply re-executes. */
    std::size_t store_skipped = 0;

    /** Flat plan indices quarantined by the supervised process
     *  backend: tasks that repeatedly crashed or wedged their worker
     *  and were excluded so the rest of the sweep could finish. Their
     *  matrix cells stay empty (MatrixResult::fault marks them) and
     *  reports render them as FAULT. Empty everywhere else. */
    std::vector<std::size_t> quarantined;

    std::size_t total() const
    {
        return executed + resumed + skipped + quarantined.size();
    }
};

/** Everything a backend borrows from the engine driving it. */
struct ExecutionContext
{
    ExperimentEngine &engine;   ///< trace cache + worker pool owner
    const EngineOptions &opts;  ///< verbose/store/shard/backend
    ProgressWriter *progress;   ///< may be nullptr (disabled)
};

/** Strategy interface: run a plan's pending tasks. */
class ExecutionBackend
{
  public:
    virtual ~ExecutionBackend() = default;

    /** Short identifier for logs/progress ("thread-pool", ...). */
    virtual const char *name() const = 0;

    /**
     * Execute every task of @p plan not marked in @p done (resumed
     * slots), writing each result into its pre-assigned slot of its
     * variant's matrix in @p res and persisting it through
     * ctx.opts.store when attached. @p counters arrives with
     * `resumed` already set; the backend adds `executed` and
     * `skipped`. Throws on the first task failure after all
     * in-flight work has come home.
     */
    virtual void execute(const TaskPlan &plan,
                         const std::vector<char> &done,
                         const ExecutionContext &ctx, SweepResult &res,
                         RunCounters &counters) = 0;
};

} // namespace microlib

#endif // MICROLIB_CORE_EXECUTION_BACKEND_HH

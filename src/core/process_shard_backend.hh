/**
 * @file
 * ProcessShardBackend: multi-process sharded execution.
 *
 * Partitions the plan's pending tasks into N shards by stable task
 * index (task i belongs to shard i mod N), forks one worker process
 * per non-empty shard, and merges the results back:
 *
 *  - each worker is a fresh ExperimentEngine (own thread pool, own
 *    trace cache) running ThreadPoolBackend over exactly its shard;
 *  - each worker appends to its OWN result store
 *    (`<store>.shard<i>of<N>`), so workers never contend on a file
 *    and a killed worker's store resumes its shard on the next run;
 *  - the parent SUPERVISES the workers (core/supervisor.hh, see
 *    docs/FAULT_TOLERANCE.md): it polls instead of blocking in
 *    waitpid, tails each worker's JSONL progress stream for
 *    heartbeat liveness, SIGKILLs a worker that stops heartbeating
 *    past ProcessShardOptions::supervision.heartbeat_timeout,
 *    restarts dead/stalled workers with exponential backoff up to
 *    supervision.max_worker_retries (the restarted worker resumes
 *    from its shard store, so only missing tasks re-execute), and
 *    quarantines a task that keeps killing its worker after
 *    supervision.quarantine_strikes failures — the rest of the
 *    sweep completes, the cell is flagged in MatrixResult::fault and
 *    listed in RunCounters::quarantined;
 *  - once every shard finishes, the parent merges the shard stores
 *    into the attached store (ResultStore::merge) and fills the
 *    matrix from the merged records.
 *
 * Because every record round-trips bit-exactly (hexfloat text) and
 * every task's slot is pre-assigned by the plan, the merged
 * SweepResult is byte-identical to a single-process run of the same
 * plan — whatever the variant count; sharding is a wall-clock
 * strategy, never a results change.
 *
 * The same partitioning runs across hosts with no fork at all: each
 * host runs `microlib_sweep --shard i/N --store <own store>` and the
 * stores are merged afterwards (`--merge`). This backend is the
 * single-host convenience form of that workflow. Requires a
 * file-backed ResultStore on the engine (fatal otherwise).
 */

#ifndef MICROLIB_CORE_PROCESS_SHARD_BACKEND_HH
#define MICROLIB_CORE_PROCESS_SHARD_BACKEND_HH

#include <string>

#include "core/execution_backend.hh"
#include "core/supervisor.hh"

namespace microlib
{

/** ProcessShardBackend construction knobs. */
struct ProcessShardOptions
{
    /** Worker process count (plan shard count). */
    std::size_t shards = 2;

    /** EngineOptions::threads inside each worker (0 = 1: shards are
     *  the parallelism axis, so workers default to serial). */
    unsigned threads_per_shard = 0;

    /** Keep the per-shard store files after a successful merge
     *  (they are always kept when a worker fails, so the next run
     *  resumes the shard). */
    bool keep_shard_stores = false;

    /** Stall detection, restart budget, backoff and quarantine for
     *  the shard workers (core/supervisor.hh). */
    SupervisionPolicy supervision;
};

/** Forked shard workers, one append-only store per shard. */
class ProcessShardBackend : public ExecutionBackend
{
  public:
    explicit ProcessShardBackend(ProcessShardOptions opts = {});

    const char *name() const override { return "process-shard"; }

    void execute(const TaskPlan &plan, const std::vector<char> &done,
                 const ExecutionContext &ctx, SweepResult &res,
                 RunCounters &counters) override;

    /** The store path shard @p index of @p count appends to, derived
     *  from the parent store path @p base. */
    static std::string shardStorePath(const std::string &base,
                                      std::size_t index,
                                      std::size_t count);

  private:
    ProcessShardOptions _opts;
};

} // namespace microlib

#endif // MICROLIB_CORE_PROCESS_SHARD_BACKEND_HH

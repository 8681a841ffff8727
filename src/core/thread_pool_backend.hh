/**
 * @file
 * ThreadPoolBackend: the in-process execution backend.
 *
 * Drains a TaskPlan's pending tasks (optionally restricted to one
 * ShardSpec) on the owning engine's persistent worker pool, one task
 * at a time, exactly as TaskPlan::pendingTasks() lists them. Each
 * task claims its trace, writes its heartbeat, runs runOne(), then
 * persists and publishes its result into its pre-assigned slot:
 *
 *  - the first worker to need a benchmark's trace becomes its owner
 *    and materializes it once into the engine's TraceCache;
 *  - workers that hit a trace still being materialized defer that
 *    task and steal unrelated work instead of blocking;
 *  - only when no other work exists does a worker wait on a trace's
 *    shared_future.
 *
 * Traces are claimed per *trace slot* — the plan's unique (benchmark,
 * window) pairs, so config variants that share a window share one
 * materialization — and only for tasks this process will run, so a
 * slot with nothing pending (resumed or out of shard) is never
 * materialized at all.
 *
 * Trace lifetime: the backend counts each slot's tasks still to run
 * in this process. When the engine's cache has an arena, the task
 * that brings a slot's count to zero evicts its trace, so a plan
 * holds only the traces of slots still in progress, and a later plan
 * maps them from the arena again. Without an arena, evicting would
 * make a later plan regenerate the trace, so claimed traces stay in
 * the cache until it is cleared or destroyed. With an arena, each
 * finished task also returns the heap pages it freed to the OS
 * (malloc_trim, on glibc), so resident memory is the running tasks'
 * tables plus the traces in progress, not a heap high-water mark.
 *
 * This is the leaf executor every other backend bottoms out in: a
 * ProcessShardBackend worker is just a fresh engine running this
 * backend over one shard.
 */

#ifndef MICROLIB_CORE_THREAD_POOL_BACKEND_HH
#define MICROLIB_CORE_THREAD_POOL_BACKEND_HH

#include "core/execution_backend.hh"

namespace microlib
{

/** Default backend: one work queue over the engine's thread pool. */
class ThreadPoolBackend : public ExecutionBackend
{
  public:
    const char *name() const override { return "thread-pool"; }

    void execute(const TaskPlan &plan, const std::vector<char> &done,
                 const ExecutionContext &ctx, SweepResult &res,
                 RunCounters &counters) override;

  private:
    struct State;

    void drain(State &st);
};

} // namespace microlib

#endif // MICROLIB_CORE_THREAD_POOL_BACKEND_HH

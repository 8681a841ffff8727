#include "core/thread_pool_backend.hh"

#include <chrono>
#include <deque>
#include <exception>
#include <mutex>

#include "core/progress.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "sim/fault.hh"
#include "sim/logging.hh"

namespace microlib
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** A group whose trace another worker is still materializing. */
struct DeferredGroup
{
    std::size_t group = 0; ///< index into State::groups
    TraceCache::Future future;
};

} // namespace

/**
 * Shared scheduling state for one execute(). The group list follows
 * the plan's canonical order (first pending member's index), so one
 * benchmark's groups stay contiguous and its trace can be released
 * soon after its block drains. Pipelining across benchmarks still
 * happens: workers that find a trace in flight defer those groups (a
 * mutex-bump per group, no simulation work) and fall through to the
 * next benchmark's block, whose trace they materialize concurrently.
 */
struct ThreadPoolBackend::State
{
    const TaskPlan &plan;
    const ExecutionContext &ctx;
    SweepResult &res;

    /** Scheduling units, each a list of plan task indices sharing
     *  (trace slot, mechanism): the plan's lockstep groups. Their
     *  union is exactly this process's pending tasks, in plan order. */
    std::vector<std::vector<std::size_t>> groups;
    /** Total pending member tasks (progress/ETA stay in task units,
     *  one event per member, whatever the grouping). */
    std::size_t pending_count = 0;
    /** Unfinished pending tasks per trace slot: the plan-aware trace
     *  refcount (resumed and out-of-shard tasks never count, and
     *  variants sharing a window share the slot). */
    std::vector<std::size_t> remaining;
    /** This process's per-benchmark task count and executed-so-far —
     *  progress counters in shard-local units, so a finished shard
     *  reports bench_done == bench_total for every benchmark it
     *  touched. */
    std::vector<std::size_t> bench_total;
    std::vector<std::size_t> bench_done;
    std::size_t resumed = 0;

    Clock::time_point start = Clock::now();

    std::mutex mu;
    std::size_t next = 0;              ///< cursor into `groups`
    std::deque<DeferredGroup> deferred; ///< groups awaiting their trace
    std::size_t done_count = 0;        ///< finished tasks (progress)
    std::exception_ptr error;          ///< first failure, if any

    State(const TaskPlan &p, const std::vector<char> &done_mask,
          const ExecutionContext &c, SweepResult &r,
          std::size_t resumed_count)
        : plan(p), ctx(c), res(r),
          groups(p.lockstepGroups(done_mask, c.opts.shard)),
          remaining(p.pendingPerTraceSlot(done_mask, c.opts.shard)),
          bench_total(p.pendingPerBenchmark(done_mask, c.opts.shard)),
          bench_done(p.benchmarks().size(), 0), resumed(resumed_count)
    {
        for (const auto &g : groups)
            pending_count += g.size();
    }
};

void
ThreadPoolBackend::drain(State &st)
{
    ExperimentEngine &engine = st.ctx.engine;
    TraceCache &cache = engine.cache();
    const EngineOptions &opts = st.ctx.opts;

    for (;;) {
        std::size_t gi = 0;
        TraceCache::Future deferred_fut;
        bool have = false;
        bool must_wait = false;
        {
            std::unique_lock<std::mutex> lock(st.mu);
            if (st.error)
                return; // a sibling failed: stop picking up work
            // Deferred groups whose trace has landed come first:
            // their benchmark is fully paid for.
            for (auto it = st.deferred.begin();
                 it != st.deferred.end(); ++it) {
                if (it->future.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    gi = it->group;
                    deferred_fut = it->future;
                    st.deferred.erase(it);
                    have = true;
                    must_wait = true;
                    break;
                }
            }
            if (!have && st.next < st.groups.size()) {
                gi = st.next++;
                have = true;
            }
            if (!have && !st.deferred.empty()) {
                // Nothing else to steal: block on a pending trace.
                gi = st.deferred.front().group;
                deferred_fut = st.deferred.front().future;
                st.deferred.pop_front();
                have = true;
                must_wait = true;
            }
            if (!have)
                return;
        }

        // Every member of a group shares (benchmark, window, mech):
        // one trace claim, one simulation pass, per-member results.
        const std::vector<std::size_t> &group = st.groups[gi];
        const PlanTask &first = st.plan.task(group.front());
        const std::size_t slot = st.plan.traceSlot(group.front());
        const std::string &key = st.plan.slotKey(slot);
        const std::string &benchmark = st.plan.benchmarks()[first.b];
        const std::string &mechanism = st.plan.mechanisms()[first.m];
        TraceCache::TracePtr trace;
        if (must_wait) {
            // Deferred groups keep the future from their original
            // claim: even if the owner failed and the cache entry
            // was dropped for retry, this surfaces that error
            // instead of panicking on a missing key.
            trace = deferred_fut.get();
        } else {
            TraceCache::Future fut;
            switch (cache.claim(key, fut)) {
              case TraceCache::Claim::Owner: {
                TraceOrigin origin = TraceOrigin::Generated;
                trace = ExperimentEngine::materializeInto(
                    cache, key, benchmark, st.plan.config(first.v),
                    &origin);
                // One event per owner-side materialization: a fully
                // warm arena run contains zero src=gen trace events
                // (the cold-vs-warm CI smoke greps for exactly that).
                if (st.ctx.progress)
                    st.ctx.progress->write(
                        ProgressEvent("trace")
                            .field("bench", benchmark)
                            .field("src",
                                   origin == TraceOrigin::Mapped
                                       ? "arena"
                                       : "gen")
                            .field("elapsed_s",
                                   secondsSince(st.start)));
                break;
              }
              case TraceCache::Claim::Ready:
                trace = fut.get();
                break;
              case TraceCache::Claim::Pending:
                // Someone else is materializing: steal unrelated
                // work instead of idling on the future.
                std::unique_lock<std::mutex> lock(st.mu);
                st.deferred.push_back({gi, std::move(fut)});
                continue;
            }
        }

        // Liveness + fault injection, per member, before any
        // simulation work: the heartbeat names the flat task index
        // about to run (flushed per line), so if this process now
        // dies or wedges — for real or because an armed FaultClause
        // fires at exactly this index — a supervising parent's last
        // heartbeat blames the right task.
        FaultInjector &injector = FaultInjector::instance();
        for (const std::size_t flat : group) {
            if (st.ctx.progress)
                st.ctx.progress->write(
                    ProgressEvent("heartbeat")
                        .field("task", st.plan.task(flat).index)
                        .field("bench", benchmark)
                        .field("mech", mechanism)
                        .field("elapsed_s", secondsSince(st.start)));
            if (injector.armed())
                injector.checkpoint(st.plan.task(flat).index);
        }

        // Simulate: one lockstep pass over the shared trace for a
        // multi-variant group, the classic single run otherwise.
        std::vector<RunOutput> outs;
        if (group.size() == 1) {
            outs.push_back(runOne(*trace, mechanism,
                                  st.plan.config(first.v)));
        } else {
            std::vector<const RunConfig *> cfgs;
            cfgs.reserve(group.size());
            for (const std::size_t flat : group)
                cfgs.push_back(&st.plan.config(st.plan.task(flat).v));
            outs = runLockstep(*trace, mechanism, cfgs);
        }

        // The member variant list, carried by each member's progress
        // event so stream consumers can attribute lockstep batches.
        std::string members;
        if (group.size() > 1) {
            for (const std::size_t flat : group) {
                if (!members.empty())
                    members += ',';
                members += st.plan.variantName(st.plan.task(flat).v);
            }
        }

        for (std::size_t g = 0; g < group.size(); ++g) {
            const std::size_t flat = group[g];
            const PlanTask &task = st.plan.task(flat);
            RunOutput &out = outs[g];
            if (opts.store) {
                // Persist before publishing: a sweep killed after
                // this point resumes past this run. put() flushes, so
                // the record survives even an abrupt exit.
                opts.store->put(
                    makeRecord(st.plan.resultKey(flat), out));
            }
            // Each task owns its (m, b, v) slot exclusively: no lock
            // needed, and the result is identical for any worker
            // count.
            MatrixResult &matrix = st.res.matrix(task.v);
            matrix.ipc[task.m][task.b] = out.core.ipc;
            matrix.outputs[task.m][task.b] = std::move(out);

            std::size_t done_now = 0;
            std::size_t bench_done_now = 0;
            bool last_of_slot = false;
            {
                std::unique_lock<std::mutex> lock(st.mu);
                done_now = ++st.done_count;
                bench_done_now = ++st.bench_done[task.b];
                last_of_slot = --st.remaining[slot] == 0;
            }
            // No pending task references this trace anymore: release
            // it for byte-budget eviction.
            if (last_of_slot)
                cache.unpin(key);
            if (st.ctx.progress) {
                const double elapsed = secondsSince(st.start);
                const double eta =
                    elapsed *
                    static_cast<double>(st.pending_count - done_now) /
                    static_cast<double>(done_now);
                // All counters are in this process's task units (its
                // shard's pending tasks, one event per member), so a
                // finished shard always reports done == pending and
                // bench_done == bench_total whatever the grouping.
                ProgressEvent ev("run");
                ev.field("bench", benchmark)
                    .field("mech", mechanism)
                    .field("variant", st.plan.variantName(task.v));
                if (!members.empty())
                    ev.field("group", members);
                ev.field("task", task.index)
                    .field("bench_done", bench_done_now)
                    .field("bench_total", st.bench_total[task.b])
                    .field("done", done_now)
                    .field("pending", st.pending_count)
                    .field("resumed", st.resumed)
                    .field("total", st.plan.size())
                    .field("elapsed_s", elapsed)
                    .field("eta_s", eta);
                st.ctx.progress->write(ev);
                if (bench_done_now == st.bench_total[task.b])
                    st.ctx.progress->write(
                        ProgressEvent("bench")
                            .field("bench", benchmark)
                            .field("done", bench_done_now)
                            .field("total", st.bench_total[task.b])
                            .field("elapsed_s", elapsed));
            }
            if (opts.verbose)
                inform("[", done_now + st.resumed, "/",
                       st.plan.size(), "] ", benchmark, " / ",
                       mechanism,
                       st.plan.variantCount() > 1
                           ? " / " + st.plan.variantName(task.v)
                           : "",
                       ": IPC ", matrix.ipc[task.m][task.b]);
        }
    }
}

void
ThreadPoolBackend::execute(const TaskPlan &plan,
                           const std::vector<char> &done,
                           const ExecutionContext &ctx,
                           SweepResult &res, RunCounters &counters)
{
    // (Re)arm fault injection from the environment every execute():
    // a forked shard worker inherits the parent's (possibly inert)
    // singleton, and the worker may also carry a different
    // MICROLIB_FAULT_STATE than its parent did.
    FaultInjector::instance().armFromEnv();

    State st(plan, done, ctx, res, counters.resumed);
    // Skipped-by-shard = pending anywhere minus pending here.
    counters.skipped =
        plan.pendingTasks(done, ShardSpec{}).size() - st.pending_count;

    TraceCache &cache = ctx.engine.cache();
    // Pin every trace slot this process will materialize: the byte
    // budget may evict only traces the remaining plan no longer
    // references. Balanced by unpin in drain() (last task of the
    // slot) or by the sweep below on the error path.
    std::vector<char> pinned(plan.traceSlotCount(), 0);
    for (std::size_t s = 0; s < plan.traceSlotCount(); ++s) {
        if (st.remaining[s] > 0) {
            cache.pin(plan.slotKey(s));
            pinned[s] = 1;
        }
    }

    // Failures are captured, never thrown across the pool: every
    // worker must come home before State leaves scope.
    auto guarded = [this, &st] {
        try {
            drain(st);
        } catch (...) {
            std::unique_lock<std::mutex> lock(st.mu);
            if (!st.error)
                st.error = std::current_exception();
        }
    };
    ThreadPool &pool = ctx.engine.pool();
    for (unsigned t = 0; t < pool.size(); ++t)
        pool.submit(guarded);
    guarded(); // the calling thread is worker zero
    pool.wait();

    // Error path: slots whose tasks never all finished still hold
    // their pin; release them so the cache budget stays honest.
    {
        std::unique_lock<std::mutex> lock(st.mu);
        for (std::size_t s = 0; s < plan.traceSlotCount(); ++s)
            if (pinned[s] && st.remaining[s] > 0)
                cache.unpin(plan.slotKey(s));
    }

    counters.executed = st.done_count;
    if (st.error)
        std::rethrow_exception(st.error);
}

} // namespace microlib

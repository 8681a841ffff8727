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

/** A task whose trace another worker is still materializing. */
struct DeferredTask
{
    std::size_t task = 0; ///< plan task index
    TraceCache::Future future;
};

} // namespace

/**
 * Shared scheduling state for one execute(). The task list is
 * pendingTasks() in plan order, so one benchmark's tasks stay
 * contiguous and run back to back over its cached trace. Pipelining
 * across benchmarks still happens: workers that find a trace in
 * flight defer those tasks (a mutex-bump per task, no simulation
 * work) and fall through to the next benchmark's block, whose trace
 * they materialize concurrently.
 */
struct ThreadPoolBackend::State
{
    const TaskPlan &plan;
    const ExecutionContext &ctx;
    SweepResult &res;

    /** This process's pending tasks, in plan order. */
    std::vector<std::size_t> tasks;
    /** This process's per-benchmark task count and executed-so-far —
     *  progress counters in shard-local units, so a finished shard
     *  reports bench_done == bench_total for every benchmark it
     *  touched. */
    std::vector<std::size_t> bench_total;
    std::vector<std::size_t> bench_done;
    std::size_t resumed = 0;

    Clock::time_point start = Clock::now();

    std::mutex mu;
    std::size_t next = 0;              ///< cursor into `tasks`
    std::deque<DeferredTask> deferred; ///< tasks awaiting their trace
    std::size_t done_count = 0;        ///< finished tasks (progress)
    std::exception_ptr error;          ///< first failure, if any

    State(const TaskPlan &p, const std::vector<char> &done_mask,
          const ExecutionContext &c, SweepResult &r,
          std::size_t resumed_count)
        : plan(p), ctx(c), res(r),
          tasks(p.pendingTasks(done_mask, c.opts.shard)),
          bench_total(p.pendingPerBenchmark(done_mask, c.opts.shard)),
          bench_done(p.benchmarks().size(), 0), resumed(resumed_count)
    {
    }
};

void
ThreadPoolBackend::drain(State &st)
{
    ExperimentEngine &engine = st.ctx.engine;
    TraceCache &cache = engine.cache();
    const EngineOptions &opts = st.ctx.opts;

    for (;;) {
        std::size_t flat = 0;
        TraceCache::Future deferred_fut;
        bool have = false;
        bool must_wait = false;
        {
            std::unique_lock<std::mutex> lock(st.mu);
            if (st.error)
                return; // a sibling failed: stop picking up work
            // Deferred tasks whose trace has landed come first:
            // their benchmark is fully paid for.
            for (auto it = st.deferred.begin();
                 it != st.deferred.end(); ++it) {
                if (it->future.wait_for(std::chrono::seconds(0)) ==
                    std::future_status::ready) {
                    flat = it->task;
                    deferred_fut = it->future;
                    st.deferred.erase(it);
                    have = true;
                    must_wait = true;
                    break;
                }
            }
            if (!have && st.next < st.tasks.size()) {
                flat = st.tasks[st.next++];
                have = true;
            }
            if (!have && !st.deferred.empty()) {
                // Nothing else to steal: block on a pending trace.
                flat = st.deferred.front().task;
                deferred_fut = st.deferred.front().future;
                st.deferred.pop_front();
                have = true;
                must_wait = true;
            }
            if (!have)
                return;
        }

        const PlanTask &task = st.plan.task(flat);
        const RunConfig &cfg = st.plan.config(task.v);
        const std::string &key = st.plan.slotKey(st.plan.traceSlot(flat));
        const std::string &benchmark = st.plan.benchmarks()[task.b];
        const std::string &mechanism = st.plan.mechanisms()[task.m];
        TraceCache::TracePtr trace;
        if (must_wait) {
            // Deferred tasks keep the future from their original
            // claim: even if the owner failed and the cache entry
            // was dropped for retry, this surfaces that error
            // instead of panicking on a missing key.
            trace = deferred_fut.get();
        } else {
            TraceCache::Future fut;
            switch (cache.claim(key, fut)) {
              case TraceCache::Claim::Owner: {
                TraceOrigin origin = TraceOrigin::Generated;
                const Clock::time_point claimed = Clock::now();
                trace = ExperimentEngine::materializeInto(
                    cache, key, benchmark, cfg, &origin);
                const double dur = secondsSince(claimed);
                // One event per owner-side materialization: a fully
                // warm arena run contains zero src=gen trace events
                // (the cold-vs-warm CI smoke greps for exactly that).
                // dur_s is the materialization's own time, SimPoint
                // resolution included.
                if (st.ctx.progress)
                    st.ctx.progress->write(
                        ProgressEvent("trace")
                            .field("bench", benchmark)
                            .field("src",
                                   origin == TraceOrigin::Mapped
                                       ? "arena"
                                       : "gen")
                            .field("elapsed_s",
                                   secondsSince(st.start))
                            .field("dur_s", dur));
                break;
              }
              case TraceCache::Claim::Ready:
                trace = fut.get();
                break;
              case TraceCache::Claim::Pending:
                // Someone else is materializing: steal unrelated
                // work instead of idling on the future.
                std::unique_lock<std::mutex> lock(st.mu);
                st.deferred.push_back({flat, std::move(fut)});
                continue;
            }
        }

        // Liveness + fault injection, right before the simulation
        // they name: the heartbeat carries the flat task index about
        // to run (flushed per line), so if this process now dies or
        // wedges — for real or because an armed FaultClause fires at
        // exactly this index — a supervising parent's last heartbeat
        // blames the right task. A firing clause is reported before
        // it acts: the parent charges the clause's budget with that
        // line.
        if (st.ctx.progress)
            st.ctx.progress->write(
                ProgressEvent("heartbeat")
                    .field("task", task.index)
                    .field("bench", benchmark)
                    .field("mech", mechanism)
                    .field("elapsed_s", secondsSince(st.start)));
        const FaultInjector &injector = FaultInjector::instance();
        if (const FaultClause *fault =
                injector.armed() ? injector.clauseAt(task.index)
                                 : nullptr) {
            if (st.ctx.progress)
                st.ctx.progress->write(
                    ProgressEvent("fault")
                        .field("task", task.index)
                        .field("clause", fault->str()));
            FaultInjector::fire(*fault);
        }

        RunOutput out = runOne(*trace, mechanism, cfg);

        if (opts.store) {
            // Persist before publishing: a sweep killed after this
            // point resumes past this run. put() flushes, so the
            // record survives even an abrupt exit.
            opts.store->put(makeRecord(st.plan.resultKey(flat), out));
        }
        // Each task owns its (m, b, v) slot exclusively: no lock
        // needed, and the result is identical for any worker count.
        MatrixResult &matrix = st.res.matrix(task.v);
        matrix.ipc[task.m][task.b] = out.core.ipc;
        matrix.outputs[task.m][task.b] = std::move(out);

        std::size_t done_now = 0;
        std::size_t bench_done_now = 0;
        {
            std::unique_lock<std::mutex> lock(st.mu);
            done_now = ++st.done_count;
            bench_done_now = ++st.bench_done[task.b];
        }
        if (st.ctx.progress) {
            const double elapsed = secondsSince(st.start);
            const double eta =
                elapsed *
                static_cast<double>(st.tasks.size() - done_now) /
                static_cast<double>(done_now);
            // All counters are in this process's task units (its
            // shard's pending tasks), so a finished shard always
            // reports done == pending and bench_done == bench_total.
            st.ctx.progress->write(
                ProgressEvent("run")
                    .field("bench", benchmark)
                    .field("mech", mechanism)
                    .field("variant", st.plan.variantName(task.v))
                    .field("task", task.index)
                    .field("bench_done", bench_done_now)
                    .field("bench_total", st.bench_total[task.b])
                    .field("done", done_now)
                    .field("pending", st.tasks.size())
                    .field("resumed", st.resumed)
                    .field("total", st.plan.size())
                    .field("elapsed_s", elapsed)
                    .field("eta_s", eta));
            if (bench_done_now == st.bench_total[task.b])
                st.ctx.progress->write(
                    ProgressEvent("bench")
                        .field("bench", benchmark)
                        .field("done", bench_done_now)
                        .field("total", st.bench_total[task.b])
                        .field("elapsed_s", elapsed));
        }
        if (opts.verbose)
            inform("[", done_now + st.resumed, "/", st.plan.size(),
                   "] ", benchmark, " / ", mechanism,
                   st.plan.variantCount() > 1
                       ? " / " + st.plan.variantName(task.v)
                       : "",
                   ": IPC ", matrix.ipc[task.m][task.b]);
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
    // singleton, and a restarted worker carries a narrower
    // MICROLIB_FAULT than its parent did.
    FaultInjector::instance().armFromEnv();

    State st(plan, done, ctx, res, counters.resumed);
    // Skipped-by-shard = pending anywhere minus pending here.
    counters.skipped =
        plan.pendingTasks(done, ShardSpec{}).size() - st.tasks.size();

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

    counters.executed = st.done_count;
    if (st.error)
        std::rethrow_exception(st.error);
}

} // namespace microlib

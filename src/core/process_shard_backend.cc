#include "core/process_shard_backend.hh"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <stdexcept>

#include "core/exit_codes.hh"
#include "core/progress.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/supervisor.hh"
#include "core/thread_pool_backend.hh"
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

/** Worker body, run between fork() and _exit(): execute shard
 *  @p shard of @p plan into its own store, reporting progress over
 *  the pipe @p progress_fd. @p faults, when not null, is the fault
 *  budget left for this incarnation. Never returns. */
[[noreturn]] void
runShardWorker(const TaskPlan &plan, const std::vector<char> &done,
               const ExecutionContext &parent_ctx,
               const ShardSpec &shard, const std::string &store_path,
               int progress_fd, const FaultPlan *faults,
               unsigned threads)
{
    try {
        if (faults)
            setenv("MICROLIB_FAULT", faults->str().c_str(), 1);

        // Fresh engine: own thread pool, own trace cache. The
        // parent's pool threads do not exist in this process; its
        // engine is never touched again (no destructors run either —
        // see the _exit below).
        // The parent's options, trace arena directory included: the
        // first worker to need a window publishes it, every sibling
        // (and every later run) mmaps that one copy.
        ResultStore store(store_path);
        EngineOptions opts = parent_ctx.opts;
        opts.threads = threads;
        opts.backend = nullptr; // the in-process drain below
        opts.store = &store;
        opts.shard = shard;
        opts.progress_path.clear(); // the parent writes the stream
        ExperimentEngine engine(opts);
        ProgressWriter progress(progress_fd);
        const ExecutionContext ctx{engine, opts, &progress};

        // The parent's resume mask rides through fork(): tasks whose
        // record the parent store already held — and tasks the parent
        // has quarantined — are never re-run here. On top of that,
        // resume from this shard's own store: a previously killed
        // worker left exactly those records.
        SweepResult res = plan.emptyResult();
        std::vector<char> worker_done = done;
        RunCounters counters;
        counters.resumed =
            plan.prefill(store, res, worker_done);

        progress.write(ProgressEvent("plan")
                           .field("backend", "process-shard/worker")
                           .field("shard", shard.str())
                           .field("total", plan.size())
                           .field("resumed", counters.resumed));

        ThreadPoolBackend leaf;
        leaf.execute(plan, worker_done, ctx, res, counters);

        progress.write(ProgressEvent("done")
                           .field("backend", "process-shard/worker")
                           .field("shard", shard.str())
                           .field("executed", counters.executed)
                           .field("resumed", counters.resumed)
                           .field("skipped", counters.skipped));
        std::fflush(stdout);
        std::fflush(stderr);
        _exit(0);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "shard worker %zu: %s\n",
                     static_cast<std::size_t>(shard.index), e.what());
        std::fflush(stderr);
        _exit(1);
    } catch (...) {
        std::fprintf(stderr, "shard worker %zu: unknown error\n",
                     static_cast<std::size_t>(shard.index));
        std::fflush(stderr);
        _exit(1);
    }
}

/** One supervised shard worker (possibly across several process
 *  incarnations: the shard, its store and its stream are stable; the
 *  pid, the pipe and the follower change on restart). */
struct Worker
{
    Worker(ShardSpec s, std::string store, const std::string &stream_path)
        : shard(s), store_path(std::move(store)), stream(stream_path)
    {
    }
    ~Worker()
    {
        if (fd >= 0)
            ::close(fd);
    }
    Worker(const Worker &) = delete;
    Worker &operator=(const Worker &) = delete;

    pid_t pid = -1;
    ShardSpec shard;
    std::string store_path;
    int fd = -1; ///< read end of the incarnation's pipe; -1 after EOF
    ProgressFollower follower;
    /** `<progress>.shard<i>`, open for the whole execute() so every
     *  incarnation's lines stay; disabled without --progress. */
    ProgressWriter stream;
    Clock::time_point last_activity{};
    Clock::time_point restart_at{}; ///< when pid < 0: relaunch gate
    bool finished = false;
};

/** Move the bytes worker @p w's pipe holds into its follower, until
 *  the pipe is empty or at EOF (then closed), and hand each completed
 *  line on: appended to the shard stream, and a `fault` event charges
 *  one firing to @p budget's clause for that task. Returns true when
 *  a line completed: liveness. */
bool
drain(Worker &w, FaultPlan &budget)
{
    while (w.fd >= 0) {
        const int n = w.follower.feedFd(w.fd);
        if (n == 0) {
            ::close(w.fd);
            w.fd = -1;
        } else if (n < 0) {
            break; // drained (EAGAIN), or EINTR: the next turn reads
        }
    }
    bool live = false;
    std::string line;
    while (w.follower.nextLine(line)) {
        live = true;
        w.stream.writeLine(line);
        std::string event;
        std::uint64_t task = 0;
        if (!jsonFindString(line, "event", event) || event != "fault" ||
            !jsonFindU64(line, "task", task))
            continue;
        auto &clauses = budget.clauses;
        for (auto it = clauses.begin(); it != clauses.end(); ++it) {
            if (it->task == task) {
                if (--it->count == 0)
                    clauses.erase(it);
                break;
            }
        }
    }
    return live;
}

/** Block until a worker's pipe has bytes or @p timeout_ms passes. */
void
awaitBytes(const std::deque<Worker> &workers, int timeout_ms)
{
    std::vector<pollfd> fds;
    for (const Worker &w : workers)
        if (w.fd >= 0)
            fds.push_back({w.fd, POLLIN, 0});
    ::poll(fds.data(), fds.size(), timeout_ms);
}

/** EINTR-proof waitpid. Returns the waitpid result with EINTR
 *  retried: an interrupted wait is not a shard failure. */
pid_t
waitFor(pid_t pid, int *status, int flags)
{
    pid_t r;
    do {
        r = waitpid(pid, status, flags);
    } while (r < 0 && errno == EINTR);
    return r;
}

} // namespace

ProcessShardBackend::ProcessShardBackend(ProcessShardOptions opts)
    : _opts(opts)
{
    if (_opts.shards == 0)
        fatal("ProcessShardOptions::shards must be >= 1");
}

std::string
ProcessShardBackend::shardStorePath(const std::string &base,
                                    std::size_t index,
                                    std::size_t count)
{
    std::string path = base;
    path += ".shard";
    path += std::to_string(index);
    path += "of";
    path += std::to_string(count);
    return path;
}

void
ProcessShardBackend::execute(const TaskPlan &plan,
                             const std::vector<char> &done,
                             const ExecutionContext &ctx,
                             SweepResult &res, RunCounters &counters)
{
    ResultStore *store = ctx.opts.store;
    if (!store || store->path().empty())
        fatal("ProcessShardBackend needs a file-backed result store "
              "(EngineOptions::store): shard workers hand results "
              "back through per-shard store files");
    if (!ctx.opts.shard.whole())
        fatal("ProcessShardBackend partitions the whole plan itself; "
              "combine --shard with the thread-pool backend instead");

    counters.skipped = 0; // this backend executes everything pending
    const std::vector<std::size_t> pending =
        plan.pendingTasks(done, ShardSpec{});
    if (pending.empty())
        return;

    const std::size_t nshards = _opts.shards;
    const unsigned worker_threads =
        _opts.threads_per_shard ? _opts.threads_per_shard : 1;

    const SupervisionPolicy &policy = _opts.supervision;
    SweepSupervisor supervisor(policy);

    // The mask restarted workers are launched with: the caller's
    // resume mask plus every task quarantined so far, so a restarted
    // worker never re-runs the task that has been killing it.
    std::vector<char> live_done = done;

    // The fault-injection budget: MICROLIB_FAULT's clauses, each
    // charged one firing per `fault` event a worker reports. Every
    // (re)launched worker is armed with what is left.
    const char *fault_env = std::getenv("MICROLIB_FAULT");
    FaultPlan budget;
    std::string fault_error;
    if (fault_env && !FaultPlan::parse(fault_env, budget, &fault_error))
        fatal(fault_error);

    std::deque<Worker> workers; // pinned: each owns its pipe and stream
    std::size_t worker_resumed = 0;
    for (std::size_t i = 0; i < nshards; ++i) {
        const ShardSpec shard{i, nshards};
        // A shard with nothing pending (all resumed, or the plan is
        // smaller than the shard count) gets no process.
        std::vector<std::size_t> mine;
        for (std::size_t t : pending)
            if (TaskPlan::inShard(t, shard))
                mine.push_back(t);
        if (mine.empty())
            continue;

        const Worker &w = workers.emplace_back(
            shard, shardStorePath(store->path(), i, nshards),
            ctx.opts.progress_path.empty()
                ? std::string()
                : ctx.opts.progress_path + ".shard" +
                      std::to_string(shard.index));
        // Records a previous (killed) worker left behind will be
        // resumed by the restarted worker, not re-executed; count
        // them now, before the child starts appending. Restarts
        // within THIS call need no recount: whatever an incarnation
        // persisted was simulated by this call, so it stays
        // `executed` even when a successor resumes it.
        const ResultStore left(w.store_path,
                               ResultStore::Mode::ReadOnly);
        for (std::size_t t : mine)
            worker_resumed += left.find(plan.resultKey(t)) ? 1 : 0;
    }

    auto launch = [&](Worker &w, std::size_t attempt) {
        if (w.fd >= 0)
            ::close(w.fd); // a predecessor's pipe not yet at EOF
        // The parent's end never blocks: a live worker's drain stops
        // at an empty pipe.
        int fds[2];
        if (::pipe2(fds, O_CLOEXEC) != 0 ||
            ::fcntl(fds[0], F_SETFL, O_NONBLOCK) != 0)
            fatal("ProcessShardBackend: pipe() failed for shard ",
                  w.shard.str());
        // Parent-side buffered output must not be replayed by every
        // child's own writes later; flush before the address space
        // is duplicated.
        std::fflush(stdout);
        std::fflush(stderr);
        w.pid = fork();
        if (w.pid < 0)
            fatal("ProcessShardBackend: fork() failed for shard ",
                  w.shard.str());
        if (w.pid == 0) {
            // Keep only this worker's write end: no child holds a
            // read end, so a dead parent closes the pipe for good.
            ::close(fds[0]);
            for (const Worker &o : workers)
                if (o.fd >= 0)
                    ::close(o.fd);
            runShardWorker(plan, live_done, ctx, w.shard,
                           w.store_path, fds[1],
                           fault_env ? &budget : nullptr,
                           worker_threads); // never returns
        }
        ::close(fds[1]);
        w.fd = fds[0];
        w.follower = ProgressFollower();
        w.last_activity = Clock::now();
        if (ctx.progress)
            ctx.progress->write(
                ProgressEvent("shard")
                    .field("shard", w.shard.str())
                    .field("pid", static_cast<std::uint64_t>(w.pid))
                    .field("attempt",
                           static_cast<std::uint64_t>(attempt))
                    .field("store", w.store_path));
    };
    for (Worker &w : workers)
        launch(w, 0);

    // Supervision loop: poll every worker for death (WNOHANG reap),
    // stall (no completed line within the heartbeat timeout) and due
    // restarts, until all shards finish or the supervisor gives up.
    // Failures never leave siblings running unsupervised: GiveUp
    // kills and reaps every live worker before throwing.
    std::string give_up;
    auto onFailure = [&](Worker &w, bool stalled,
                         std::string detail) {
        // The caller drained the dead worker's pipe to its EOF: the
        // heartbeat written just before the fatal task is the blame
        // evidence.
        WorkerFailure f;
        f.worker = w.shard.index;
        f.stalled = stalled;
        f.detail = std::move(detail);
        f.has_task = w.follower.lastHeartbeatTask(f.task);
        const SupervisionVerdict verdict = supervisor.decide(f);
        warn("ProcessShardBackend: ", verdict.why);
        if (verdict.quarantined) {
            live_done[verdict.task] = 1;
            if (ctx.progress)
                ctx.progress->write(
                    ProgressEvent("quarantine")
                        .field("task", verdict.task)
                        .field("shard", w.shard.str())
                        .field("desc",
                               plan.describe(verdict.task,
                                             ShardSpec{0, nshards})));
        }
        if (verdict.action == SupervisionVerdict::Action::GiveUp) {
            give_up = verdict.why;
            return;
        }
        w.pid = -1;
        w.restart_at =
            Clock::now() +
            std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(verdict.delay_s));
        if (ctx.progress)
            ctx.progress->write(
                ProgressEvent("worker_restart")
                    .field("shard", w.shard.str())
                    .field("stalled",
                           static_cast<std::uint64_t>(stalled ? 1 : 0))
                    .field("retries", supervisor.retries(f.worker))
                    .field("delay_s", verdict.delay_s));
    };

    std::size_t active = workers.size();
    while (active > 0 && give_up.empty()) {
        for (Worker &w : workers) {
            if (w.finished || !give_up.empty())
                continue;
            if (w.pid < 0) {
                // Waiting out its restart backoff.
                if (Clock::now() >= w.restart_at)
                    launch(w, supervisor.retries(w.shard.index));
                continue;
            }

            int status = 0;
            const pid_t r = waitFor(w.pid, &status, WNOHANG);
            if (r < 0) {
                give_up = "shard " + w.shard.str() +
                          ": waitpid failed (errno " +
                          std::to_string(errno) + ")";
                break;
            }
            if (r == w.pid) {
                const bool ok =
                    WIFEXITED(status) && WEXITSTATUS(status) == 0;
                drain(w, budget); // the stream's last lines, to EOF
                if (ctx.progress)
                    ctx.progress->write(
                        ProgressEvent("shard_exit")
                            .field("shard", w.shard.str())
                            .field("ok", static_cast<std::uint64_t>(
                                             ok ? 1 : 0)));
                if (ok) {
                    w.finished = true;
                    --active;
                } else {
                    onFailure(w, false,
                              WIFSIGNALED(status)
                                  ? "killed by signal " +
                                        std::to_string(WTERMSIG(status))
                                  : "exit status " +
                                        std::to_string(
                                            WEXITSTATUS(status)));
                }
                continue;
            }

            // Alive. Any completed line is liveness; silence past the
            // timeout means wedged — SIGKILL and let the supervisor
            // decide about the restart.
            if (drain(w, budget)) {
                w.last_activity = Clock::now();
            } else if (policy.heartbeat_timeout > 0 &&
                       secondsSince(w.last_activity) >
                           policy.heartbeat_timeout) {
                kill(w.pid, SIGKILL);
                waitFor(w.pid, &status, 0);
                drain(w, budget);
                if (ctx.progress)
                    ctx.progress->write(
                        ProgressEvent("worker_stall")
                            .field("shard", w.shard.str())
                            .field("timeout_s",
                                   policy.heartbeat_timeout));
                onFailure(w, true,
                          "no heartbeat for " +
                              std::to_string(
                                  policy.heartbeat_timeout) +
                              "s");
            }
        }
        if (active > 0 && give_up.empty())
            awaitBytes(workers, 15);
    }

    if (!give_up.empty()) {
        for (Worker &w : workers) {
            if (w.finished || w.pid < 0)
                continue;
            kill(w.pid, SIGKILL);
            int status = 0;
            waitFor(w.pid, &status, 0);
        }
        // Shard stores are deliberately kept: the next run resumes
        // exactly the missing tasks of the failed shard(s). This is
        // an infrastructure failure (exit 4), not an experiment
        // failure — retrying against a healthy machine resumes.
        throw InfrastructureError("ProcessShardBackend: " + give_up +
                                  " (shard stores kept for resume)");
    }

    // All workers succeeded: merge the shard stores into the parent
    // store, then fill the matrix from the merged records — the same
    // resume path a restarted sweep takes.
    for (const Worker &w : workers)
        store->merge(w.store_path);
    std::vector<char> merged_done = done;
    const std::size_t filled = plan.prefill(*store, res, merged_done);
    // Truthful accounting: of the records just merged, the ones a
    // killed worker had already persisted before THIS call were
    // resumed inside its first restarted incarnation, not simulated.
    counters.executed = filled - worker_resumed;
    counters.resumed += worker_resumed;
    // Quarantined tasks have no record: flag their cells and exempt
    // them from the completeness check.
    const std::size_t missing = plan.settleQuarantined(
        supervisor.quarantined(), res, merged_done,
        counters.quarantined);
    if (missing < plan.size())
        throw std::runtime_error(
            "ProcessShardBackend: shard worker exited cleanly but "
            "produced no record for " +
            plan.describe(missing, ShardSpec{0, nshards}));

    if (!_opts.keep_shard_stores)
        for (const Worker &w : workers)
            std::remove(w.store_path.c_str());
}

} // namespace microlib

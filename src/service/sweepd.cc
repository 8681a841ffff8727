#include "service/sweepd.hh"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/exit_codes.hh"
#include "service/net.hh"
#include "service/protocol.hh"
#include "sim/logging.hh"
#include "sim/version.hh"

namespace microlib
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point then, Clock::time_point now)
{
    return std::chrono::duration<double>(now - then).count();
}

std::string
errReply(const std::string &cmd, const std::string &error)
{
    return ProtocolMsg("reply", cmd)
        .field("ok", std::uint64_t{0})
        .field("error", error)
        .str();
}

} // namespace

SweepService::SweepService(SweepServiceOptions opts)
    : _opts(std::move(opts)), _jobs(_opts.max_done_jobs)
{
}

SweepService::~SweepService()
{
    for (Conn &c : _conns)
        if (c.fd >= 0)
            ::close(c.fd);
    if (_listen_fd >= 0)
        ::close(_listen_fd);
    if (isUnixAddr(_opts.listen))
        ::unlink(_opts.listen.substr(5).c_str());
}

bool
SweepService::start(std::string *error)
{
    ignoreSigpipe();
    if (_opts.store_path.empty()) {
        if (error)
            *error = "a --store path is required";
        return false;
    }
    _store = std::make_unique<ResultStore>(
        _opts.store_path, _opts.read_only
                              ? ResultStore::Mode::ReadOnly
                              : ResultStore::Mode::ReadWrite);
    _progress = std::make_unique<ProgressWriter>(_opts.progress_path);
    _listen_fd = listenOn(_opts.listen, error);
    if (_listen_fd < 0)
        return false;
    _address = boundAddr(_listen_fd, _opts.listen);
    return true;
}

void
SweepService::progress(const JsonLine &ev)
{
    if (_progress)
        _progress->write(ev);
}

bool
SweepService::send(Conn &c, const std::string &line)
{
    if (c.fd < 0 || c.dead)
        return false;
    // Peer hung up mid-reply: treat exactly like an EOF on the read
    // side at the next loop turn.
    if (!appendLine(c.fd, line))
        c.dead = true;
    return !c.dead;
}

std::string
SweepService::ownerKey(const Conn &c) const
{
    // The connection id, not the advertised name: two connections
    // claiming one name (a restarted worker) must never alias each
    // other's leases.
    return "conn" + std::to_string(c.id);
}

void
SweepService::acceptNew()
{
    const int fd = ::accept(_listen_fd, nullptr, nullptr);
    if (fd < 0)
        return;
    Conn c;
    c.fd = fd;
    c.id = _next_conn_id++;
    c.last_activity = Clock::now();
    _conns.push_back(std::move(c));
}

int
SweepService::run()
{
    progress(ProgressEvent("service")
                 .field("listen", _address)
                 .field("store", _opts.store_path)
                 .field("schema", schemaTuple())
                 .field("read_only",
                        std::uint64_t(_opts.read_only ? 1 : 0)));
    inform("microlib_sweepd: listening on ", _address, " (store ",
           _opts.store_path, _opts.read_only ? ", read-only)" : ")");

    while (!_stop.load()) {
        std::vector<pollfd> fds;
        fds.push_back({_listen_fd, POLLIN, 0});
        for (Conn &c : _conns)
            fds.push_back({c.fd, POLLIN, 0});

        // Short timeout: bounds stall-detection latency and the
        // requestStop() response time.
        const int rc = ::poll(fds.data(), fds.size(), 200);
        if (rc < 0 && errno != EINTR)
            break;

        if (rc > 0 && (fds[0].revents & POLLIN))
            acceptNew();

        std::size_t i = 1;
        for (Conn &c : _conns) {
            if (i >= fds.size())
                break;
            const short rev = fds[i++].revents;
            if (c.dead || !(rev & (POLLIN | POLLHUP | POLLERR)))
                continue;
            const int n = c.stream.feedFd(c.fd);
            if (n > 0) {
                c.last_activity = Clock::now();
                for (const std::string &line : c.stream.takeLines())
                    handleLine(c, line);
            } else if (n == 0 ||
                       (errno != EAGAIN && errno != EINTR)) {
                // EOF (or a hard error): the peer is gone. A worker
                // holding a lease died mid-sweep.
                if (c.is_worker && c.lease_count > 0)
                    workerFailed(c, false, "connection closed");
                else if (c.is_worker)
                    progress(ProgressEvent("worker")
                                 .field("name", c.name)
                                 .field("state", "detach"));
                c.dead = true;
            }
        }

        // Stall scan: a worker that holds a lease but has sent no
        // bytes (heartbeats included) for the timeout is wedged; cut
        // it — its tasks requeue, and if it ever wakes up its late
        // records still merge on its next complete (record-wins).
        if (_opts.heartbeat_timeout > 0) {
            const auto now = Clock::now();
            for (Conn &c : _conns) {
                if (c.dead || !c.is_worker || c.lease_count == 0)
                    continue;
                if (secondsSince(c.last_activity, now) >
                    _opts.heartbeat_timeout) {
                    workerFailed(c, true, "heartbeat timeout");
                    c.dead = true;
                }
            }
        }

        for (auto it = _conns.begin(); it != _conns.end();) {
            if (it->dead) {
                if (it->fd >= 0)
                    ::close(it->fd);
                it = _conns.erase(it);
            } else {
                ++it;
            }
        }
    }

    progress(ProgressEvent("shutdown"));
    inform("microlib_sweepd: shutting down");
    return exit_ok;
}

void
SweepService::handleLine(Conn &c, const std::string &line)
{
    // Worker progress passthrough: relay verbatim into the daemon's
    // stream. The connection's ProgressFollower has already
    // recorded any heartbeat as blame evidence.
    std::string kind;
    if (protocolKind(line, "event", kind)) {
        if (_progress)
            _progress->writeLine(line);
        return;
    }
    if (!protocolKind(line, "cmd", kind)) {
        send(c, errReply("?", "unparseable line"));
        return;
    }
    if (kind == "submit")
        cmdSubmit(c, line);
    else if (kind == "status")
        cmdStatus(c, line);
    else if (kind == "result")
        cmdResult(c, line);
    else if (kind == "workers")
        cmdWorkers(c);
    else if (kind == "hello")
        cmdHello(c, line);
    else if (kind == "lease")
        cmdLease(c);
    else if (kind == "complete")
        cmdComplete(c, line);
    else if (kind == "shutdown") {
        send(c, ProtocolMsg("reply", "shutdown")
                    .field("ok", std::uint64_t{1})
                    .str());
        requestStop();
    } else {
        send(c, errReply(kind, "unknown command"));
    }
}

void
SweepService::cmdSubmit(Conn &c, const std::string &line)
{
    std::string text;
    if (!jsonFindString(line, "spec", text)) {
        send(c, errReply("submit", "missing spec"));
        return;
    }
    SweepSpec spec;
    std::string error;
    if (!SweepSpec::parse(text, spec, &error)) {
        send(c, errReply("submit", "spec: " + error));
        return;
    }
    const bool existed = _jobs.find(jobIdOf(spec)) != nullptr;
    // Strikes are the daemon's only per-job policy: a failed worker's
    // lease requeues to whoever pulls next, with no restart to budget.
    SupervisionPolicy policy;
    policy.quarantine_strikes = _opts.quarantine_strikes;
    JobTable::Submission sub = _jobs.submit(spec, *_store, policy);
    ServiceJob &job = *sub.job;
    if (_opts.read_only && !job.completed) {
        // Serve-only deployment: anything needing execution is
        // refused (and not kept — the table must not accrete
        // unservable jobs).
        _jobs.erase(job.id);
        send(c, errReply("submit",
                         "read-only daemon: sweep has unexecuted "
                         "tasks"));
        return;
    }
    const char *dedup = existed ? "job" : "new";
    if (!existed)
        progress(ProgressEvent("job")
                     .field("job", job.id)
                     .field("dedup", dedup)
                     .field("total", std::uint64_t(job.total()))
                     .field("prefilled",
                            std::uint64_t(job.prefilled)));
    send(c, ProtocolMsg("reply", "submit")
                .field("ok", std::uint64_t{1})
                .field("job", job.id)
                .field("dedup", dedup)
                .field("state",
                       job.completed ? "done" : "running")
                .field("total", std::uint64_t(job.total()))
                .field("filled", std::uint64_t(job.filled()))
                .str());
}

void
SweepService::statusReply(Conn &c, ServiceJob &job)
{
    send(c,
         ProtocolMsg("reply", "status")
             .field("ok", std::uint64_t{1})
             .field("job", job.id)
             .field("state", job.completed ? "done" : "running")
             .field("total", std::uint64_t(job.total()))
             .field("filled", std::uint64_t(job.filled()))
             .field("prefilled", std::uint64_t(job.prefilled))
             .field("executed", std::uint64_t(job.executed))
             .field("pending",
                    std::uint64_t(job.queue.pendingCount()))
             .field("leased", std::uint64_t(job.queue.leasedCount()))
             .field("quarantined", job.quarantined())
             .field("store_skipped",
                    std::uint64_t(_store->unreadable()))
             .field("exit", std::uint64_t(job.exitCode()))
             .str());
}

void
SweepService::cmdStatus(Conn &c, const std::string &line)
{
    std::string id;
    if (!jsonFindString(line, "job", id)) {
        send(c, errReply("status", "missing job"));
        return;
    }
    ServiceJob *job = _jobs.find(id);
    if (!job) {
        send(c, errReply("status", "unknown job " + id));
        return;
    }
    statusReply(c, *job);
}

void
SweepService::cmdResult(Conn &c, const std::string &line)
{
    std::string id;
    if (!jsonFindString(line, "job", id)) {
        send(c, errReply("result", "missing job"));
        return;
    }
    ServiceJob *job = _jobs.find(id);
    if (!job) {
        send(c, errReply("result", "unknown job " + id));
        return;
    }
    if (!job->completed) {
        send(c, errReply("result", "job " + id + " still running"));
        return;
    }
    // Header (record count + quarantined indices), then one line per
    // record: the store line verbatim, escaped. The client rebuilds
    // its SweepResult by parsing these with the SAME parseRecord the
    // store uses, so service results are byte-identical to local
    // ones (hexfloat doubles round-trip exactly).
    std::vector<std::string> records;
    records.reserve(job->total());
    for (std::size_t i = 0; i < job->total(); ++i) {
        if (!job->done[i])
            continue;
        const auto rec = _store->find(job->plan.resultKey(i));
        if (rec)
            records.push_back(ResultStore::formatRecord(*rec));
    }
    send(c, ProtocolMsg("reply", "result")
                .field("ok", std::uint64_t{1})
                .field("job", job->id)
                .field("records", std::uint64_t(records.size()))
                .field("quarantined", job->quarantined())
                .field("exit", std::uint64_t(job->exitCode()))
                .str());
    for (const std::string &r : records)
        if (!send(c, ProtocolMsg("reply", "record")
                         .field("rec", r)
                         .str()))
            return; // client gone; stop streaming
}

void
SweepService::cmdWorkers(Conn &c)
{
    std::uint64_t count = 0;
    for (const Conn &w : _conns)
        if (w.is_worker && !w.dead)
            ++count;
    send(c, ProtocolMsg("reply", "workers")
                .field("ok", std::uint64_t{1})
                .field("count", count)
                .str());
    for (const Conn &w : _conns) {
        if (!w.is_worker || w.dead)
            continue;
        if (!send(c, ProtocolMsg("reply", "worker")
                         .field("name", w.name)
                         .field("leased",
                                std::uint64_t(w.lease_count))
                         .field("job", w.job_id)
                         .str()))
            return;
    }
}

void
SweepService::cmdHello(Conn &c, const std::string &line)
{
    if (_opts.read_only) {
        send(c, errReply("hello", "read-only daemon: no workers"));
        return;
    }
    std::string schema;
    if (!jsonFindString(line, "schema", schema) ||
        schema != schemaTuple()) {
        // A schema-tuple mismatch means this worker would disagree
        // with the daemon about what a store record, an arena file
        // or a sweep hash means — refuse it outright.
        send(c, errReply("hello", "schema mismatch: daemon has " +
                                      schemaTuple() + ", worker has " +
                                      (schema.empty() ? "(none)"
                                                      : schema)));
        return;
    }
    if (!jsonFindString(line, "store", c.store_path) ||
        c.store_path.empty()) {
        send(c, errReply("hello", "missing store path"));
        return;
    }
    jsonFindString(line, "name", c.name);
    if (c.name.empty())
        c.name = ownerKey(c);
    c.is_worker = true;
    progress(ProgressEvent("worker")
                 .field("name", c.name)
                 .field("state", "attach"));
    send(c, ProtocolMsg("reply", "hello")
                .field("ok", std::uint64_t{1})
                .field("lease_size",
                       std::uint64_t(_opts.lease_size))
                .str());
}

void
SweepService::cmdLease(Conn &c)
{
    if (!c.is_worker) {
        send(c, errReply("lease", "hello first"));
        return;
    }
    if (c.lease_count > 0) {
        send(c, errReply("lease", "complete the current lease "
                                  "first"));
        return;
    }
    ServiceJob *job = _jobs.nextLeasable();
    if (!job) {
        // Nothing to do right now; the worker sleeps and re-asks.
        send(c, ProtocolMsg("reply", "lease")
                    .field("ok", std::uint64_t{1})
                    .field("tasks", std::vector<std::size_t>{})
                    .str());
        return;
    }
    const std::vector<std::size_t> tasks =
        job->queue.lease(ownerKey(c), _opts.lease_size);
    c.job_id = job->id;
    c.lease_count = tasks.size();
    progress(ProgressEvent("lease")
                 .field("job", job->id)
                 .field("worker", c.name)
                 .field("tasks", std::uint64_t(tasks.size()))
                 .field("first",
                        std::uint64_t(tasks.empty() ? 0 : tasks[0])));
    send(c, ProtocolMsg("reply", "lease")
                .field("ok", std::uint64_t{1})
                .field("job", job->id)
                .field("spec", job->spec_text)
                .field("tasks", tasks)
                .str());
}

void
SweepService::absorbWorkerStore(Conn &c, ServiceJob &job)
{
    if (!c.store_path.empty())
        _store->merge(c.store_path);
    const std::size_t filled =
        job.plan.prefill(*_store, job.res, job.done);
    job.executed += filled;
    job.queue.markDone(job.done);
}

void
SweepService::cmdComplete(Conn &c, const std::string &line)
{
    std::string id;
    std::vector<std::size_t> tasks;
    if (!c.is_worker || !jsonFindString(line, "job", id) ||
        !jsonFindArray(line, "tasks", tasks)) {
        send(c, errReply("complete", "malformed complete"));
        return;
    }
    ServiceJob *job = _jobs.find(id);
    if (!job) {
        send(c, errReply("complete", "unknown job " + id));
        return;
    }
    std::uint64_t ok = 1;
    jsonFindU64(line, "ok", ok);

    absorbWorkerStore(c, *job);

    // Whatever the worker reported but did not record failed on its
    // watch: requeue for another worker, and charge a strike to the
    // blamed (last-heartbeat) task so a poison task converges to
    // quarantine instead of bouncing forever.
    std::vector<std::size_t> unrecorded;
    const std::string owner = ownerKey(c);
    for (const std::size_t t : tasks) {
        const std::string *holder = job->queue.ownerOf(t);
        if (holder && *holder == owner && job->queue.requeue(t))
            unrecorded.push_back(t);
    }
    std::string failure;
    if (!unrecorded.empty() || ok == 0) {
        jsonFindString(line, "error", failure);
        if (failure.empty())
            failure = std::to_string(unrecorded.size()) +
                      " task(s) unrecorded";
    }
    endLease(c, *job, failure, false, nullptr);
    send(c, ProtocolMsg("reply", "complete")
                .field("ok", std::uint64_t{1})
                .str());
}

void
SweepService::workerFailed(Conn &c, bool stalled,
                           const std::string &detail)
{
    ServiceJob *job = _jobs.find(c.job_id);
    if (!job) {
        c.lease_count = 0;
        return;
    }
    // Salvage first: every record the worker flushed before dying
    // completes its task — only the genuinely unfinished requeue.
    absorbWorkerStore(c, *job);
    const std::vector<std::size_t> requeued =
        job->queue.release(ownerKey(c));
    const JsonLine lost =
        ProgressEvent("worker")
            .field("name", c.name)
            .field("state", stalled ? "stalled" : "died")
            .field("requeued", std::uint64_t(requeued.size()));
    endLease(c, *job, detail, stalled, &lost);
}

void
SweepService::endLease(Conn &c, ServiceJob &job,
                       const std::string &failure, bool stalled,
                       const JsonLine *lost)
{
    if (!failure.empty()) {
        WorkerFailure f;
        f.worker = c.id;
        f.stalled = stalled;
        f.detail = failure;
        f.has_task = c.stream.lastHeartbeatTask(f.task);
        const SupervisionVerdict verdict = job.supervisor.decide(f);
        warn("microlib_sweepd: worker ", c.name, ": ", verdict.why);
        if (verdict.quarantined && job.queue.quarantine(verdict.task))
            progress(ProgressEvent("quarantine")
                         .field("job", job.id)
                         .field("task", std::uint64_t(verdict.task))
                         .field("desc",
                                job.plan.describe(verdict.task,
                                                  ShardSpec{})));
    }
    if (lost)
        progress(*lost);
    c.lease_count = 0;
    // Before sweepCompleted(), which may evict (free) a done job.
    if (job.completed || job.queue.done())
        progress(ProgressEvent("job_done")
                     .field("job", job.id)
                     .field("executed", std::uint64_t(job.executed))
                     .field("quarantined",
                            std::uint64_t(job.quarantined().size()))
                     .field("exit", std::uint64_t(job.exitCode())));
    _jobs.sweepCompleted();
}

} // namespace microlib

/**
 * @file
 * SweepService: the microlib_sweepd daemon core.
 *
 * A single-threaded poll(2) event loop over one listening socket
 * (unix:/path or host:port — service/net.hh) speaking the JSONL
 * protocol of service/protocol.hh. Everything the daemon knows is
 * composed from pieces that already existed and are unit-tested in
 * isolation:
 *
 *  - JobTable (service/job_table.hh): sweep-level and task-level
 *    dedup against the daemon's global ResultStore;
 *  - LeaseQueue (core/lease.hh): pull scheduling — workers ask,
 *    the daemon never pushes;
 *  - ProgressFollower (core/supervisor.hh): per-connection
 *    JSONL reassembly; worker `event` lines relay into the daemon's
 *    own progress stream and their heartbeats become blame evidence;
 *  - SweepSupervisor (core/supervisor.hh): the PR-7 strike /
 *    quarantine policy, applied per job when a worker dies, stalls
 *    (no bytes for heartbeat_timeout while holding a lease) or
 *    completes a lease without producing a task's record.
 *
 * Single-threaded on purpose: every transition — lease, merge,
 * requeue, quarantine, eviction — is serialized by the loop, so the
 * daemon needs no locks and its state can never tear. Simulation
 * happens in workers; the daemon only moves lines and merges store
 * files, so one thread is plenty for the target scale (tens of
 * workers). Blocking replies to slow clients are accepted for the
 * same reason (documented in docs/SWEEP_SERVICE.md).
 *
 * The class is embeddable (tests run it on a thread and stop it with
 * requestStop()); tools/microlib_sweepd/main.cc is the thin CLI
 * wrapper that adds flags and signal handling.
 */

#ifndef MICROLIB_SERVICE_SWEEPD_HH
#define MICROLIB_SERVICE_SWEEPD_HH

#include <atomic>
#include <chrono>
#include <cstddef>
#include <list>
#include <memory>
#include <string>
#include <vector>

#include "core/progress.hh"
#include "core/result_store.hh"
#include "core/supervisor.hh"
#include "service/job_table.hh"

namespace microlib
{

/** Daemon knobs (tools/microlib_sweepd flags map 1:1). */
struct SweepServiceOptions
{
    std::string listen;        ///< unix:/path or host:port
    std::string store_path;    ///< global result store (required)
    std::string progress_path; ///< daemon JSONL stream; "" = off

    /** Tasks per lease. Small keeps requeue loss on a worker death
     *  small; plan-order contiguity keeps trace sharing. */
    std::size_t lease_size = 4;

    /** Seconds without bytes from a lease-holding worker before it
     *  is declared stalled and cut; <= 0 disables (death detection
     *  via EOF still applies). */
    double heartbeat_timeout = 0.0;

    /** Failures blamed on one task before it is quarantined
     *  (core/supervisor.hh); 0 disables quarantine. */
    std::size_t quarantine_strikes = 3;

    /** Serve cached results only: the store opens ReadOnly, submits
     *  needing execution are refused, workers are refused. */
    bool read_only = false;

    /** Completed jobs kept before oldest-first eviction. */
    std::size_t max_done_jobs = 64;
};

/** The daemon: construct, start(), run() until requestStop(). */
class SweepService
{
  public:
    explicit SweepService(SweepServiceOptions opts);
    ~SweepService();

    SweepService(const SweepService &) = delete;
    SweepService &operator=(const SweepService &) = delete;

    /** Open the store and the listening socket. False + *error on
     *  failure (the caller exits exit_infrastructure). */
    bool start(std::string *error);

    /** The resolved listen address (host:0 -> the real port);
     *  valid after start(). */
    const std::string &address() const { return _address; }

    /** Event loop; returns the process exit code. Runs until
     *  requestStop() or a shutdown command. */
    int run();

    /** Stop the loop from another thread or a signal handler. */
    void requestStop() { _stop.store(true); }

  private:
    struct Conn
    {
        int fd = -1;
        std::size_t id = 0;           ///< stable per-connection
        ProgressFollower stream;       ///< line reassembly + blame
        bool is_worker = false;        ///< sent a hello
        std::string name;              ///< worker display name
        std::string store_path;        ///< worker's store (hello)
        std::string job_id;            ///< job of the current lease
        std::size_t lease_count = 0;   ///< tasks currently held
        std::chrono::steady_clock::time_point last_activity;
        bool dead = false;             ///< reap after this loop turn
    };

    std::string ownerKey(const Conn &c) const;

    void acceptNew();
    void handleLine(Conn &c, const std::string &line);
    void cmdSubmit(Conn &c, const std::string &line);
    void cmdStatus(Conn &c, const std::string &line);
    void cmdResult(Conn &c, const std::string &line);
    void cmdWorkers(Conn &c);
    void cmdHello(Conn &c, const std::string &line);
    void cmdLease(Conn &c);
    void cmdComplete(Conn &c, const std::string &line);

    /** Merge @p c's store and absorb new records into @p job:
     *  prefill, count executed, drop finished tasks from the
     *  queue. */
    void absorbWorkerStore(Conn &c, ServiceJob &job);

    /** A lease-holding worker died/stalled/failed: merge what it
     *  flushed, requeue the rest, strike the blamed task. */
    void workerFailed(Conn &c, bool stalled,
                      const std::string &detail);

    /** End @p c's lease on @p job. A non-empty @p failure (its
     *  detail text) strikes the task its last heartbeat blames:
     *  decide, warn, and a "quarantine" event if that quarantines
     *  it. Then @p lost (the worker's own event, when the connection
     *  is gone), and "job_done" if the lease was the job's last. */
    void endLease(Conn &c, ServiceJob &job, const std::string &failure,
                  bool stalled, const JsonLine *lost);

    void statusReply(Conn &c, ServiceJob &job);
    bool send(Conn &c, const std::string &line);
    void progress(const JsonLine &ev);

    SweepServiceOptions _opts;
    std::unique_ptr<ResultStore> _store;
    std::unique_ptr<ProgressWriter> _progress;
    JobTable _jobs;
    std::list<Conn> _conns;
    int _listen_fd = -1;
    std::string _address;
    std::size_t _next_conn_id = 0;
    std::atomic<bool> _stop{false};
};

} // namespace microlib

#endif // MICROLIB_SERVICE_SWEEPD_HH

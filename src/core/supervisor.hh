/**
 * @file
 * Sweep supervision: the parent-side policy that keeps a multi-
 * process sweep alive through worker crashes, hangs and poison tasks.
 *
 * The supervised ProcessShardBackend no longer blocks in waitpid()
 * and gives up on the first casualty; it polls, and this module owns
 * everything the poll loop decides with:
 *
 *  - ProgressFollower tails a worker's JSONL progress stream
 *    incrementally: any newly completed line is liveness, and the
 *    last `heartbeat` event names the flat task index the worker was
 *    about to run — the task a crash or stall is blamed on. The
 *    follower only ever consumes whole lines, so a line torn by a
 *    dying writer is simply not yet visible (and a restarted worker
 *    truncating its stream rewinds the follower).
 *
 *  - SweepSupervisor turns a worker death or stall into a Verdict:
 *    restart after an exponentially backed-off delay, quarantine the
 *    blamed task first (K strikes — across restarts — and the task
 *    is excluded from the restarted worker's plan instead of sinking
 *    the sweep), or give up once the worker's retry budget is spent.
 *    Quarantining resets the worker's retry budget: the budget
 *    guards against a sick host, not against a poison task that has
 *    just been removed.
 *
 * The policy is deliberately process-free — no fork, no kill, no
 * clocks it doesn't receive — so every decision path is unit-testable
 * without spawning a single worker (tests/test_supervision.cc).
 */

#ifndef MICROLIB_CORE_SUPERVISOR_HH
#define MICROLIB_CORE_SUPERVISOR_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace microlib
{

/** Supervision knobs (held by ProcessShardOptions::supervision; see
 *  docs/FAULT_TOLERANCE.md). */
struct SupervisionPolicy
{
    /** Seconds without progress-stream growth before a worker is
     *  declared stalled and SIGKILLed; <= 0 disables stall
     *  detection (crash supervision still applies). */
    double heartbeat_timeout = 0.0;

    /** Restarts allowed per worker before the sweep fails; 0 is the
     *  old fail-fast behavior. Reset when a quarantine removes the
     *  task that was killing the worker. */
    std::size_t max_worker_retries = 2;

    /** Failures blamed on the same task before it is quarantined
     *  (excluded from the plan) instead of retried; 0 disables
     *  quarantine. */
    std::size_t quarantine_strikes = 3;

    /** First restart delay in seconds; doubles per consecutive
     *  retry of the same worker, capped at backoff_max_s. */
    double backoff_initial_s = 0.25;
    static constexpr double backoff_max_s = 8.0;
};

/**
 * Incremental, torn-line-tolerant reader of one worker's JSONL
 * progress stream. poll() consumes any newly *completed* lines (a
 * trailing line without its newline stays unread until the writer
 * finishes it — or forever, if the writer died mid-write) and
 * remembers the task index of the last `heartbeat` event seen.
 */
class ProgressFollower
{
  public:
    ProgressFollower() = default;
    explicit ProgressFollower(std::string path);

    /** Read any newly completed lines. Returns true if at least one
     *  complete line (or a stream truncation — a restarted worker
     *  reopening its stream) was observed: the liveness signal. */
    bool poll();

    /** The task index of the last heartbeat event, if any. */
    bool lastHeartbeatTask(std::size_t &task) const;

    /** Forget stream position and blame state (worker restarted;
     *  its writer truncates the file). */
    void rewind();

    /**
     * Extract the "task" field of a heartbeat progress line; false
     * for any other (or torn) line. Exposed for tests and other
     * stream consumers.
     */
    static bool parseHeartbeat(const std::string &line,
                               std::size_t &task);

  private:
    std::string _path;
    std::streamoff _offset = 0;
    bool _has_task = false;
    std::size_t _task = 0;
};

/**
 * ProgressFollower's stream-transport sibling: the same whole-lines-
 * only JSONL reassembly, fed from a pipe or socket instead of a file.
 * A read() from a stream can return any byte split — half a line, a
 * line and a half — so the follower buffers raw chunks and surfaces
 * only completed lines, remembering the last heartbeat's task index
 * exactly like the file follower. The daemon runs one per worker
 * connection; EOF on the fd (read() == 0 via feedFd) is the worker-
 * death signal, and whatever sits unterminated in the buffer then is
 * a torn line: never surfaced, never counted as liveness.
 */
class ProgressStreamFollower
{
  public:
    /** Buffer @p n raw bytes; any lines they complete become
     *  takeLines() output and update the heartbeat blame state. */
    void feed(const char *data, std::size_t n);

    void feed(const std::string &chunk)
    {
        feed(chunk.data(), chunk.size());
    }

    /** One read() from @p fd into the buffer. Returns read()'s
     *  result: bytes consumed (> 0), 0 on EOF (worker hung up), or
     *  -1 with errno (EAGAIN on a drained non-blocking fd). */
    int feedFd(int fd);

    /** Lines completed since the last call, in arrival order,
     *  newlines stripped; clears the internal queue. */
    std::vector<std::string> takeLines();

    /** Whether any completed lines are queued (cheaper than
     *  takeLines().empty() — no move). */
    bool hasLines() const { return !_lines.empty(); }

    /** The task index of the last heartbeat event, if any. */
    bool lastHeartbeatTask(std::size_t &task) const;

    /** Bytes buffered but not yet terminated by a newline — after
     *  EOF, the torn tail's length. */
    std::size_t pending() const { return _buf.size(); }

    /** Forget buffered bytes, queued lines and blame state. */
    void reset();

  private:
    std::string _buf;
    std::vector<std::string> _lines;
    bool _has_task = false;
    std::size_t _task = 0;
};

/** How a worker came to need supervision. */
struct WorkerFailure
{
    std::size_t worker = 0;  ///< stable worker slot (shard index)
    bool stalled = false;    ///< heartbeat timeout (vs death)
    bool has_task = false;   ///< a heartbeat named the task in flight
    std::size_t task = 0;    ///< blamed flat task index
    std::string detail;      ///< human text: signal / exit status
};

/** What the poll loop must do about a failure. */
struct SupervisionVerdict
{
    enum class Action
    {
        Restart, ///< relaunch the worker after delay_s
        GiveUp,  ///< retry budget spent: fail the sweep
    };

    Action action = Action::Restart;
    double delay_s = 0.0;          ///< backoff before the relaunch
    bool quarantined = false;      ///< this failure quarantined `task`
    std::size_t task = 0;          ///< the quarantined task, if so
    std::string why;               ///< one-line explanation for logs
};

/** Strike/retry/quarantine bookkeeping for one sweep execution. */
class SweepSupervisor
{
  public:
    explicit SweepSupervisor(SupervisionPolicy policy)
        : _policy(policy)
    {
    }

    const SupervisionPolicy &policy() const { return _policy; }

    /** Decide what to do about @p failure (see file comment for the
     *  policy). Records the strike and the retry. */
    SupervisionVerdict decide(const WorkerFailure &failure);

    /** Flat task indices quarantined so far, in decision order. */
    const std::vector<std::size_t> &quarantined() const
    {
        return _quarantined;
    }

    bool isQuarantined(std::size_t task) const;

    /** Strikes recorded against @p task so far. */
    std::size_t strikes(std::size_t task) const;

    /** Restarts burned by worker @p worker (quarantines reset it). */
    std::size_t retries(std::size_t worker) const;

  private:
    SupervisionPolicy _policy;
    std::map<std::size_t, std::size_t> _strikes;  ///< task -> count
    std::map<std::size_t, std::size_t> _retries;  ///< worker -> count
    std::vector<std::size_t> _quarantined;
};

} // namespace microlib

#endif // MICROLIB_CORE_SUPERVISOR_HH

/**
 * @file
 * Sweep supervision: the parent-side policy that keeps a multi-
 * process sweep alive through worker crashes, hangs and poison tasks.
 *
 * The supervised ProcessShardBackend no longer blocks in waitpid()
 * and gives up on the first casualty; it polls, and this module owns
 * everything the poll loop decides with:
 *
 *  - ProgressFollower reassembles a worker's JSONL progress stream
 *    — a file it tails, or a socket it is fed — into whole lines:
 *    any newly completed line is liveness, and the last `heartbeat`
 *    event names the flat task index the worker was about to run —
 *    the task a crash or stall is blamed on. A line torn by a dying
 *    writer is simply not yet visible (and a restarted worker
 *    truncating its stream resets the follower).
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
#include <cstdint>
#include <deque>
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
 * Whole-lines-only reader of one JSONL stream — the one line
 * reassembler of the repository. Raw bytes go in, in any split a
 * read() produces (half a line, a line and a half); only completed
 * lines come out, and the last `heartbeat` event's task index is
 * remembered as the blame for a crash or stall. An unterminated tail
 * stays buffered: a line torn by a dying writer is never surfaced
 * and never counts as liveness.
 *
 * Three transports feed it: the daemon feeds each connection's
 * socket (feedFd, one per poll turn), LineSocket receives through it
 * (nextLine), and the shard supervisor follows a worker's progress
 * file (poll: the bytes appended since the last read).
 */
class ProgressFollower
{
  public:
    ProgressFollower() = default;

    /** Follow the file at @p path through poll(). */
    explicit ProgressFollower(std::string path) : _path(std::move(path))
    {
    }

    /** Buffer @p n raw bytes; any lines they complete queue for
     *  nextLine()/takeLines() and update the heartbeat blame state.
     *  Returns the number of lines completed. */
    std::size_t feed(const char *data, std::size_t n);

    std::size_t feed(const std::string &chunk)
    {
        return feed(chunk.data(), chunk.size());
    }

    /** One read() from @p fd into the buffer. Returns read()'s
     *  result: bytes consumed (> 0), 0 on EOF (the writer hung up),
     *  or -1 with errno (EAGAIN on a drained non-blocking fd). */
    int feedFd(int fd);

    /** Feed the bytes appended to the followed file since the last
     *  read. Returns true on liveness: at least one completed line,
     *  or a truncation (a restarted worker reopening its stream),
     *  which resets the follower. A file is followed for liveness and
     *  blame only; its lines are not queued. */
    bool poll();

    /** Pop the oldest completed line, newline stripped. */
    bool nextLine(std::string &line);

    /** Lines completed since the last call, in arrival order,
     *  newlines stripped; clears the queue. */
    std::vector<std::string> takeLines();

    bool hasLines() const { return !_lines.empty(); }

    /** The task index of the last heartbeat event, if any. */
    bool lastHeartbeatTask(std::size_t &task) const;

    /** Bytes buffered but not yet terminated by a newline — after
     *  EOF, the torn tail's length. */
    std::size_t pending() const { return _buf.size(); }

    /** Forget buffered bytes, queued lines and blame state. */
    void reset();

  private:
    std::string _path;
    std::uint64_t _fed = 0; ///< bytes fed since reset: the file offset
    std::string _buf;
    std::deque<std::string> _lines;
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

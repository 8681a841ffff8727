/**
 * @file
 * Machine-readable sweep progress: one JSON object per line.
 *
 * Long sweeps — especially sharded ones running on other hosts —
 * need to be monitorable without scraping human log output. With
 * EngineOptions::progress_path set, every execution backend appends
 * one JSON line per event to that file (flushed per line, so `tail
 * -f` and remote pollers always see whole records):
 *
 *   {"event":"plan",...}      once per run(): totals, resumed/skipped
 *                             counts, the shard spec
 *   {"event":"heartbeat",...} per task, immediately BEFORE it
 *                             simulates: the flat task index about to
 *                             run (plus bench/mech). The liveness
 *                             signal supervised sharding reads — and
 *                             the blame evidence when the process
 *                             dies or wedges on that task
 *   {"event":"fault",...}     an armed MICROLIB_FAULT clause firing at
 *                             the task just heartbeat, written before
 *                             it acts (sim/fault.hh)
 *   {"event":"run",...}       per finished task: benchmark, mechanism,
 *                             per-benchmark and overall completed/total
 *                             counters, elapsed seconds, ETA seconds
 *   {"event":"bench",...}     when a benchmark's last pending task of
 *                             this process finishes
 *   {"event":"done",...}      once per run(): final counters,
 *                             quarantined/store_skipped included
 *
 * The supervising parent of a multi-process sweep adds worker
 * lifecycle events to ITS stream: "shard" (worker launched: pid,
 * attempt), "worker_stall" (heartbeat timeout: SIGKILL),
 * "worker_restart" (restart verdict: retries, backoff delay),
 * "quarantine" (a task excluded after repeated strikes) and
 * "shard_exit" (a worker finished).
 *
 * Each shard worker of a multi-process sweep streams its lines over
 * a pipe, and the parent appends each completed one to a per-shard
 * file, so shards are monitored independently. Progress output never feeds back into results: it
 * carries wall-clock times but the determinism contract is untouched.
 * Consumers must tolerate a torn final line — a writer can die
 * mid-write; core/supervisor.hh's ProgressFollower (which only ever
 * consumes completed lines) is the reference reader.
 *
 * This header is the one JSONL layer: progress lines and the service
 * protocol (service/protocol.hh) share its builder, readers and
 * write loop. It is NOT a JSON library, only the subset both need:
 * flat objects of strings, unsigned integers, "%.3f" doubles and
 * unsigned-integer arrays.
 */

#ifndef MICROLIB_CORE_PROGRESS_HH
#define MICROLIB_CORE_PROGRESS_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace microlib
{

/**
 * Builder for one JSONL line: {"<kind>":"<name>", fields...}. The
 * leading key tells lines apart: "event" for progress lines,
 * "cmd"/"reply" for protocol lines. Fields keep call order; strings
 * escape quotes, backslashes and control bytes (as \u00xx).
 */
class JsonLine
{
  public:
    JsonLine(const char *kind, const std::string &name);

    JsonLine &field(const char *key, const std::string &value);
    JsonLine &field(const char *key, std::uint64_t value);
    /** Fixed "%.3f": progress times are telemetry, not results. */
    JsonLine &field(const char *key, double value);
    /** "key":[1,2,3] — task-index lists. */
    JsonLine &field(const char *key,
                    const std::vector<std::size_t> &values);

    /** The complete JSON object, closing brace included, no
     *  newline. */
    std::string str() const { return _line + '}'; }

  private:
    /** Append `,"key":` and return the line for the value. */
    std::string &beginField(const char *key);

    std::string _line;
};

/** A progress line: {"event":"<name>", fields...}. */
class ProgressEvent : public JsonLine
{
  public:
    explicit ProgressEvent(const std::string &name)
        : JsonLine("event", name)
    {
    }
};

/** Whether @p line's first key is @p key ("cmd", "reply", "event")
 *  and, if so, its string value in @p out. */
bool protocolKind(const std::string &line, const std::string &key,
                  std::string &out);

/** Extract the string value of "key":"..." from @p line, unescaping
 *  \" \\ and \uXXXX control escapes; false if absent or malformed. */
bool jsonFindString(const std::string &line, const std::string &key,
                    std::string &out);

/** Extract the unsigned value of "key":<digits>; false if absent,
 *  signed, blank-prefixed or overflowing (the option table's rule
 *  for numbers: sim/options.hh parseCount). */
bool jsonFindU64(const std::string &line, const std::string &key,
                 std::uint64_t &out);

/** Extract "key":[<digits>,...] into @p out; false if absent or
 *  malformed, with jsonFindU64's rule for every element (an empty
 *  array is success). */
bool jsonFindArray(const std::string &line, const std::string &key,
                   std::vector<std::size_t> &out);

/** Write @p line plus its newline to @p fd with one write loop
 *  (EINTR retried), so a reader sees at worst a torn tail, never a
 *  line split by another writer's. False on any write error. */
bool appendLine(int fd, const std::string &line);

/** Append-per-line JSONL progress stream; thread-safe, one write()
 *  per line. A default-constructed writer is disabled and write() is
 *  a no-op, so call sites never branch. Sinks to a file (the classic
 *  tail-able stream) or a caller-owned fd (a service worker streaming
 *  events over its daemon socket — the same lines, the same
 *  whole-lines-only contract, a different transport). A failed write
 *  disables the writer. */
class ProgressWriter
{
  public:
    ProgressWriter() = default;

    /** Open (truncate) @p path; empty = disabled. Parent directories
     *  are created. */
    explicit ProgressWriter(const std::string &path);

    /** Write lines to @p fd (a connected socket or pipe). The fd is
     *  borrowed, never closed (the fd's owner learns of a hangup
     *  through its own I/O). */
    explicit ProgressWriter(int fd) : _fd(fd) {}

    ~ProgressWriter();

    ProgressWriter(const ProgressWriter &) = delete;
    ProgressWriter &operator=(const ProgressWriter &) = delete;

    bool enabled() const { return _fd >= 0; }

    void write(const JsonLine &event) { writeLine(event.str()); }

    /** Append one raw, already-formatted JSONL line (no newline).
     *  The daemon relays worker progress lines into its own stream
     *  through this — byte-identical passthrough, no re-encode. */
    void writeLine(const std::string &line);

  private:
    std::mutex _mu; ///< one line at a time
    /** -1 = disabled. Atomic: enabled() reads it unlocked while a
     *  failed write may clear it. */
    std::atomic<int> _fd{-1};
    bool _owned = false; ///< opened from a path: close on destruction
};

} // namespace microlib

#endif // MICROLIB_CORE_PROGRESS_HH

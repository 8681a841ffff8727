/**
 * @file
 * Versioned, append-only result store.
 *
 * Every completed simulation run is persisted as one self-describing
 * record keyed by a fingerprint of everything that determined its
 * outcome: benchmark, mechanism, a 64-bit hash of the full system
 * configuration (core, caches, buses, SDRAM, trace window, mechanism
 * options), the benchmark's trace-generation seed, and the store
 * schema version. The record carries the complete CoreResult and the
 * full StatSet snapshot, serialized exactly (doubles as hexfloats),
 * so a resumed sweep is bit-identical to an uninterrupted one.
 *
 * The ExperimentEngine writes records as workers finish runs and, on
 * a later run() over the same matrix, skips every task whose
 * fingerprint already has a record — an interrupted sweep resumes
 * instead of restarting. A record whose fingerprint does not match
 * the current configuration is simply never found: stale results are
 * ignored, never silently reused.
 *
 * The file is append-only with no header; each line stands alone and
 * holds one record. put() appends a record only when the store does
 * not already hold it identically, so merges and reruns add no
 * duplicate lines. Two stores (e.g. from sharded sweeps on different
 * hosts) combine with merge(), or by concatenating their files and
 * compacting the result. Lines with an unknown schema tag, a
 * parse error, or a per-record FNV checksum mismatch (the trailing
 * `ck=` field catches bit rot and splices, not just torn tails) are
 * skipped on load and counted (unreadable(), surfaced as
 * RunCounters::store_skipped), so a schema bump never corrupts a
 * reader and a record torn by a crash mid-write costs exactly one
 * run. Setting MICROLIB_STORE_FSYNC=1 upgrades the per-put flush to
 * an fsync, trading append throughput for power-loss durability.
 * See docs/RESULT_STORE.md for the on-disk format.
 */

#ifndef MICROLIB_CORE_RESULT_STORE_HH
#define MICROLIB_CORE_RESULT_STORE_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "core/experiment.hh"

namespace microlib
{

/**
 * On-disk record schema version. Bump whenever the line format, the
 * fingerprint field set, or the meaning of any persisted value
 * changes; old records then become unreadable-by-design rather than
 * wrong (the loader skips their lines). See docs/RESULT_STORE.md for
 * the bump policy.
 */
constexpr int result_store_schema = 1;

/** Identity of one persisted run. */
struct ResultKey
{
    std::string benchmark;
    std::string mechanism;
    std::uint64_t config_hash = 0; ///< fingerprintConfig(cfg)
    std::uint64_t trace_seed = 0;  ///< SpecProgram::seed
    int schema = result_store_schema;

    /** Canonical map key: all five fields, unambiguously joined. */
    std::string str() const;

    bool
    operator==(const ResultKey &o) const
    {
        return schema == o.schema && config_hash == o.config_hash &&
               trace_seed == o.trace_seed && benchmark == o.benchmark &&
               mechanism == o.mechanism;
    }
};

/**
 * 64-bit fingerprint of every RunConfig field that can change a
 * result: core parameters, all three caches' geometry/timing/realism
 * flags, both buses, the memory model and SDRAM timings, the trace
 * selection and window scale, and the mechanism options. Benchmark
 * identity and trace seed are deliberately NOT part of this hash —
 * they are separate ResultKey fields, so one sweep's records share
 * one config hash.
 */
std::uint64_t fingerprintConfig(const RunConfig &cfg);

/** The config hash a @p mechanism cell under @p cfg is keyed on:
 *  fingerprintConfig(cfg), except that Base builds no mechanism, so
 *  it is keyed on @p cfg with the default MechanismConfig — every
 *  mech.* variant of a config shares its Base cells. */
std::uint64_t fingerprintCell(const RunConfig &cfg,
                              const std::string &mechanism);

/** The full key for (@p benchmark, @p mechanism) under @p cfg; looks
 *  up the benchmark's generator seed. @p config_hash must be
 *  fingerprintCell(cfg, mechanism) — callers keying a whole matrix
 *  hash the config once. */
ResultKey makeResultKey(const std::string &benchmark,
                        const std::string &mechanism,
                        std::uint64_t config_hash);

/** One persisted run: its identity plus everything runOne() reports. */
struct ResultRecord
{
    ResultKey key;
    CoreResult core;
    std::map<std::string, double> stats; ///< full StatSet snapshot
};

/** Rebuild the engine's RunOutput view of a persisted record. */
RunOutput toRunOutput(const ResultRecord &rec);

/** Build the record for a finished run. */
ResultRecord makeRecord(ResultKey key, const RunOutput &out);

/**
 * The store: an in-memory fingerprint -> record index, optionally
 * backed by an append-only file. All operations are thread-safe; the
 * engine's workers put() concurrently. Each put() is flushed, so a
 * killed sweep keeps every completed run.
 */
class ResultStore
{
  public:
    /**
     * Access mode of a file-backed store.
     *
     *  - ReadWrite: puts append to the backing file. The append
     *    stream opens lazily on the first put(), so a store opened
     *    only to be queried never creates or touches its file.
     *  - ReadOnly: a query-only view — find()/size() work, any
     *    mutation (put/merge/compact) is fatal(). Safe to open on a
     *    store another process is actively appending to: this side
     *    holds no write handle at all.
     */
    enum class Mode
    {
        ReadWrite,
        ReadOnly,
    };

    /** In-memory store (tests, throwaway sweeps). */
    ResultStore() = default;

    /** File-backed store: loads existing records from @p path (a
     *  missing file is an empty store). In ReadWrite mode parent
     *  directories are created, but the file itself is only created
     *  when the first put() appends — opening a store to query it
     *  leaves the filesystem untouched. MICROLIB_STORE_FSYNC=1 in the
     *  environment makes every put() fsync the backing file, not just
     *  flush it. */
    explicit ResultStore(const std::string &path,
                         Mode mode = Mode::ReadWrite);

    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** The record for @p key, or nullopt. Returned by value: a
     *  reference into the store could be mutated by a concurrent
     *  put() of the same key (last-wins), and the copy is off the
     *  simulation path. */
    std::optional<ResultRecord> find(const ResultKey &key) const;

    /** Insert @p rec and append its line to the backing file,
     *  flushed — unless the store already holds @p rec identically
     *  (the same formatted line), which changes nothing: every held
     *  record is already a line of the file. A changed record under
     *  a held key is appended and wins, in memory and on reload (by
     *  the determinism contract it does not occur in one sweep).
     *  fatal() on a ReadOnly store, held record or not. */
    void put(const ResultRecord &rec);

    std::size_t size() const;

    /**
     * put() every readable record of the store file at @p input_path
     * into this store, so only records this store does not already
     * hold reach its backing file: merging the same file twice
     * leaves the file as it was. Unreadable lines are skipped and
     * counted, exactly as the load skips them. Returns the number
     * of records read. This is how sharded sweeps and the sweep
     * daemon combine stores; see docs/SHARDING.md.
     */
    std::size_t merge(const std::string &input_path);

    /**
     * Rewrite the backing file to exactly one record per key — the
     * in-memory (last-wins) view — in sorted key order, dropping
     * duplicate lines of `cat`-joined files, records superseded
     * under their key, and any unreadable lines the load skipped.
     * The rewrite goes through a temporary file renamed into place,
     * so a crash mid-compact leaves either the old or the new file,
     * never a torn one. The sorted order makes a compacted store a
     * pure function of its record set: two stores holding the same
     * records compact to byte-identical files, however differently
     * they were built.
     * A memory-only store compacts trivially. Returns the number of
     * records in the compacted store.
     */
    std::size_t compact();

    const std::string &path() const { return _path; }
    Mode mode() const { return _mode; }

    /** Lines skipped as unreadable (unknown schema, torn write,
     *  checksum mismatch) by this store's loads and merges so far —
     *  durability telemetry; each such line's task just re-executes. */
    std::size_t unreadable() const;

    /** Serialize @p rec as one store line (no trailing newline),
     *  trailing `ck=` checksum included. */
    static std::string formatRecord(const ResultRecord &rec);

    /** Parse one store line; false on unknown schema, any parse
     *  error, or a `ck=` checksum mismatch (the caller skips such
     *  lines). Lines without a checksum field — written before the
     *  field existed — still parse. */
    static bool parseRecord(const std::string &line, ResultRecord &rec);

  private:
    /** Feed every readable record of the store file at @p path to
     *  @p sink, skipping empty lines; count and warn about the
     *  unreadable ones. False when @p path cannot be opened. */
    bool readFile(const std::string &path,
                  const std::function<void(ResultRecord &&)> &sink);
    /** Open the append stream if not already open (lock held);
     *  fatal() in ReadOnly mode. */
    void ensureAppend();

    std::string _path;           ///< empty = memory-only
    Mode _mode = Mode::ReadWrite;
    mutable std::mutex _mu;
    std::FILE *_append = nullptr; ///< append stream (FILE*: fsync needs a fd)
    bool _fsync = false;          ///< MICROLIB_STORE_FSYNC=1
    std::size_t _unreadable = 0;
    std::unordered_map<std::string, ResultRecord> _records;
};

} // namespace microlib

#endif // MICROLIB_CORE_RESULT_STORE_HH

/**
 * @file
 * Thread-safe cache of materialized trace windows and SimPoint
 * choices.
 *
 * The first thread to need a trace becomes its *owner* and
 * materializes it exactly once; every other thread observes a
 * std::shared_future for the entry and can either wait on it or go
 * run unrelated work first (the experiment scheduler does the
 * latter). Entries are keyed by an opaque string that must encode
 * everything the trace depends on — benchmark plus the resolved
 * window — so two configurations with identical windows share one
 * materialization.
 *
 * Tier-2 backing (optional): setArena() attaches a persistent
 * on-disk TraceArena (trace_arena.hh). The cache itself never reads
 * or writes the arena — owners do (see
 * ExperimentEngine::materializeInto): they probe the arena before
 * materializing and publish after, then fulfill() the cache with the
 * resulting trace, mapped or generated. A mapped trace's column and
 * image-page bytes live in the OS page cache, which reclaims them
 * under pressure, so an arena (`--trace-dir`) is what bounds trace
 * memory on a small host; evicting a mapped entry merely unmaps — the
 * file stays warm for the next claim.
 *
 * This subsumes the old process-wide `simpoint_cache` map in
 * experiment.cc, which was written from multiple worker threads with
 * no synchronization at all.
 *
 * Lifetime: a ready trace stays cached until evict() or clear() drops
 * it, or the cache is destroyed. In-flight entries are never dropped,
 * and holders of a shared_ptr keep an evicted trace alive regardless.
 * The thread-pool backend evicts a trace after the last task of the
 * plan that runs on it, but only when an arena is attached: the next
 * claim then maps the file again (its pages resident only where read)
 * instead of regenerating the window. Without an arena, traces stay
 * until the cache is cleared, so later plans in the same process
 * reuse them.
 */

#ifndef MICROLIB_TRACE_TRACE_CACHE_HH
#define MICROLIB_TRACE_TRACE_CACHE_HH

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "trace/simpoint.hh"
#include "trace/window.hh"

namespace microlib
{

class TraceArena;

/** Concurrent trace store with single-materialization semantics. */
class TraceCache
{
  public:
    using TracePtr = std::shared_ptr<const MaterializedTrace>;
    using Future = std::shared_future<TracePtr>;
    using Materializer = std::function<MaterializedTrace()>;

    /** Outcome of claim(): what the caller should do next. */
    enum class Claim
    {
        Owner,   ///< caller must materialize and fulfill() (or fail())
        Ready,   ///< the future already holds the trace
        Pending, ///< another thread is materializing; wait or defer
    };

    /**
     * Look up @p key; if absent, the caller becomes the owner of a
     * fresh entry and MUST later call fulfill() or fail() for it.
     * @p out always receives the entry's future.
     */
    Claim claim(const std::string &key, Future &out);

    /** Publish the owner's materialized trace for @p key and return
     *  it. */
    TracePtr fulfill(const std::string &key, MaterializedTrace trace);

    /** Propagate a materialization failure to all waiters of @p key. */
    void fail(const std::string &key, std::exception_ptr err);

    /**
     * Blocking convenience: return the cached trace for @p key, the
     * first caller materializing it via @p make. Concurrent callers
     * for the same key run @p make exactly once.
     */
    TracePtr get(const std::string &key, const Materializer &make);

    /** Drop @p key (no-op when absent). In-flight waiters keep their
     *  shared_future alive; only the cache's reference is released. */
    void evict(const std::string &key);

    /** Drop every trace entry (SimPoint choices are kept: they are a
     *  few dozen bytes each and expensive to recompute). */
    void clear();

    /** Number of trace entries, ready or in flight. */
    std::size_t traceCount() const;

    /** Attach (or detach, with null) the persistent tier-2 arena.
     *  The cache only stores the handle; owners probe/publish it. */
    void setArena(std::shared_ptr<TraceArena> arena);

    /** The attached arena, or null. */
    std::shared_ptr<TraceArena> arena() const;

    /**
     * SimPoint choice for (@p benchmark, @p interval, @p k), computed
     * once per process and cached. Mutex-guarded: safe to call from
     * any worker thread, unlike the old bare map.
     */
    SimPointChoice simPoint(const std::string &benchmark,
                            std::uint64_t interval, unsigned k);

    /** Number of cached SimPoint choices. */
    std::size_t simPointCount() const;

    /** The process-wide instance backing materializeFor(). */
    static TraceCache &process();

  private:
    mutable std::mutex _mu;
    std::unordered_map<std::string, Future> _traces;
    /** Promises for entries still being materialized by their owner. */
    std::unordered_map<std::string, std::promise<TracePtr>> _inflight;
    /** Optional persistent tier-2 backing (may be shared across
     *  engines and, via a common directory, across processes). */
    std::shared_ptr<TraceArena> _arena;

    mutable std::mutex _sp_mu;
    /** Keyed by benchmark\0interval\0k. */
    std::unordered_map<std::string, std::shared_future<SimPointChoice>>
        _simpoints;
};

} // namespace microlib

#endif // MICROLIB_TRACE_TRACE_CACHE_HH

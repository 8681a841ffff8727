#include "core/scheduler.hh"

#include <cstdlib>
#include <utility>

#include "core/progress.hh"
#include "core/result_store.hh"
#include "core/thread_pool_backend.hh"
#include "sim/logging.hh"
#include "trace/spec_suite.hh"
#include "trace/trace_arena.hh"

namespace microlib
{

namespace
{

/** Effective arena directory: the explicit option, else the
 *  MICROLIB_TRACE_DIR environment knob, else none. */
std::string
resolveTraceDir(const EngineOptions &opts)
{
    if (!opts.trace_dir.empty())
        return opts.trace_dir;
    const char *env = std::getenv("MICROLIB_TRACE_DIR");
    return (env && *env) ? std::string(env) : std::string();
}

} // namespace

ExperimentEngine::ExperimentEngine(EngineOptions opts)
    : _opts(opts),
      _pool((opts.threads ? opts.threads
                          : ThreadPool::defaultThreadCount()) - 1)
{
    if (_opts.shard.count == 0)
        fatal("EngineOptions::shard.count must be >= 1");
    if (_opts.shard.index >= _opts.shard.count)
        fatal("EngineOptions::shard.index ", _opts.shard.index,
              " out of range for ", _opts.shard.count, " shard(s)");
    _opts.trace_dir = resolveTraceDir(opts);
    if (!_opts.trace_dir.empty())
        _cache.setArena(
            std::make_shared<TraceArena>(_opts.trace_dir));
}

ExperimentEngine::~ExperimentEngine() = default;

std::shared_ptr<const MaterializedTrace>
ExperimentEngine::materializeInto(TraceCache &cache,
                                  const std::string &key,
                                  const std::string &benchmark,
                                  const RunConfig &cfg,
                                  TraceOrigin *origin)
{
    if (origin)
        *origin = TraceOrigin::Generated;
    try {
        // Tier 2 first: an arena hit carries its resolved window, so
        // it skips SimPoint BBV profiling along with generation.
        const std::shared_ptr<TraceArena> arena = cache.arena();
        if (arena) {
            if (auto mapped = arena->tryLoad(key)) {
                if (origin)
                    *origin = TraceOrigin::Mapped;
                return cache.fulfill(key, std::move(*mapped));
            }
        }
        MaterializedTrace trace = materialize(
            specProgram(benchmark), resolveWindow(benchmark, cfg));
        if (arena && arena->publish(key, trace)) {
            // Swap the heap copy for a mapping of the file we just
            // published: frees ~all of the trace's owned bytes and
            // joins the directory-wide shared page-cache copy. Still
            // src=gen — this process paid for the generation.
            if (auto mapped = arena->tryLoad(key))
                return cache.fulfill(key, std::move(*mapped));
        }
        return cache.fulfill(key, std::move(trace));
    } catch (...) {
        cache.fail(key, std::current_exception());
        throw;
    }
}

std::shared_ptr<const MaterializedTrace>
ExperimentEngine::trace(const std::string &benchmark,
                        const RunConfig &cfg)
{
    const std::string key = traceCacheKey(benchmark, cfg);
    TraceCache::Future fut;
    if (_cache.claim(key, fut) == TraceCache::Claim::Owner)
        return materializeInto(_cache, key, benchmark, cfg);
    return fut.get();
}

SweepResult
ExperimentEngine::run(const SweepSpec &spec)
{
    return runPlan(TaskPlan(spec));
}

SweepResult
ExperimentEngine::runPlan(const TaskPlan &plan)
{
    _last = RunCounters{};
    SweepResult res = plan.emptyResult();
    if (plan.empty())
        return res;

    // Resume pass (plan logic): pre-fill every slot whose
    // fingerprint already has a record, shard membership
    // notwithstanding — a resumed slot is free no matter who ran it.
    // A benchmark whose tasks all resume is never materialized.
    std::vector<char> done(plan.size(), 0);
    if (_opts.store) {
        _last.resumed = plan.prefill(*_opts.store, res, done);
        if (_opts.verbose && _last.resumed)
            inform("resumed ", _last.resumed, "/", plan.size(),
                   " runs from ", _opts.store->path().empty()
                                      ? "<memory store>"
                                      : _opts.store->path());
    }

    // Dedup pass: the first pending task of each ResultKey in this
    // process's shard runs; every later one is marked done now,
    // counted as resumed, and copied from it after execution.
    const auto copies = plan.sharedKeyTasks(done, _opts.shard);
    for (const auto &copy : copies)
        done[copy.first] = 1;
    _last.resumed += copies.size();

    ProgressWriter progress(_opts.progress_path);
    const ExecutionContext ctx{*this, _opts,
                               progress.enabled() ? &progress
                                                  : nullptr};
    ThreadPoolBackend builtin;
    ExecutionBackend *backend =
        _opts.backend ? _opts.backend : &builtin;

    if (progress.enabled()) {
        const std::size_t pending =
            plan.pendingTasks(done, _opts.shard).size();
        progress.write(ProgressEvent("plan")
                           .field("backend", backend->name())
                           .field("shard", _opts.shard.str())
                           .field("total", plan.size())
                           .field("pending", pending)
                           .field("resumed", _last.resumed)
                           .field("benchmarks",
                                  plan.benchmarks().size())
                           .field("mechanisms",
                                  plan.mechanisms().size())
                           .field("variants", plan.variantCount()));
    }

    backend->execute(plan, done, ctx, res, _last);
    for (const auto &[later, first] : copies) {
        const PlanTask &from = plan.task(first);
        const PlanTask &to = plan.task(later);
        const MatrixResult &src = res.matrix(from.v);
        MatrixResult &dst = res.matrix(to.v);
        if (src.faulted(from.m, from.b)) {
            dst.fault[to.m][to.b] = 1;
        } else {
            dst.ipc[to.m][to.b] = src.ipc[from.m][from.b];
            dst.outputs[to.m][to.b] = src.outputs[from.m][from.b];
        }
    }
    // Cumulative unreadable-line count across this store's loads and
    // merges — the durability telemetry behind the checksum field.
    if (_opts.store)
        _last.store_skipped = _opts.store->unreadable();

    if (progress.enabled())
        progress.write(ProgressEvent("done")
                           .field("backend", backend->name())
                           .field("shard", _opts.shard.str())
                           .field("executed", _last.executed)
                           .field("resumed", _last.resumed)
                           .field("skipped", _last.skipped)
                           .field("quarantined",
                                  _last.quarantined.size())
                           .field("store_skipped",
                                  _last.store_skipped));
    return res;
}

} // namespace microlib

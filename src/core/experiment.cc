#include "core/experiment.hh"

#include <algorithm>

#include "cpu/lockstep.hh"
#include "sim/logging.hh"
#include "trace/spec_suite.hh"
#include "trace/trace_cache.hh"

namespace microlib
{

double
RunOutput::stat(const std::string &name) const
{
    auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second;
}

std::string
windowKey(const RunConfig &cfg)
{
    std::string key;
    if (cfg.selection == TraceSelection::SimPoint) {
        key += "sp";
        key += '\0';
        key += std::to_string(cfg.scale.simpoint_interval);
        key += '\0';
        key += std::to_string(cfg.scale.simpoint_k);
        key += '\0';
        key += std::to_string(cfg.scale.simpoint_trace);
    } else {
        key += "arb";
        key += '\0';
        key += std::to_string(cfg.scale.arbitrary_skip);
        key += '\0';
        key += std::to_string(cfg.scale.arbitrary_length);
    }
    return key;
}

TraceWindow
resolveWindow(const std::string &benchmark, const RunConfig &cfg)
{
    TraceWindow window;
    if (cfg.selection == TraceSelection::SimPoint) {
        // The process-wide cache: SimPoint choices are pure
        // (benchmark, interval, k) functions and expensive, so a
        // fresh engine must not recompute what an earlier one
        // already profiled.
        const SimPointChoice sp = TraceCache::process().simPoint(
            benchmark, cfg.scale.simpoint_interval,
            cfg.scale.simpoint_k);
        window.skip = sp.start_instruction;
        window.length = cfg.scale.simpoint_trace;
    } else {
        window.skip = cfg.scale.arbitrary_skip;
        window.length = cfg.scale.arbitrary_length;
    }
    return window;
}

MaterializedTrace
materializeFor(const std::string &benchmark, const RunConfig &cfg)
{
    return materialize(specProgram(benchmark),
                       resolveWindow(benchmark, cfg));
}

namespace
{

/** One simulation's model state, set up the one way runOne() and
 *  runLockstep() both use: hierarchy, mechanism bound to it, every
 *  counter registered, and a core. Fills @p out's identity. */
struct Member
{
    Hierarchy hier;
    std::unique_ptr<CacheMechanism> mech;
    StatSet stats;
    OoOCore core;

    Member(const MaterializedTrace &trace, const std::string &mechanism,
           const RunConfig &cfg, RunOutput &out)
        : hier(cfg.system.hier, trace.image),
          mech(makeMechanism(mechanism, cfg.mech)),
          core(cfg.system.core)
    {
        out.benchmark = trace.benchmark;
        out.mechanism = mechanism;
        hier.registerStats(stats);
        if (mech) {
            mech->bind(hier);
            mech->registerStats(stats);
            hier.setClient(mech.get());
        }
    }
};

} // namespace

RunOutput
runOne(const MaterializedTrace &trace, const std::string &mechanism,
       const RunConfig &cfg)
{
    RunOutput out;
    Member m(trace, mechanism, cfg, out);
    out.core = m.core.run(trace.view(), m.hier);
    m.stats.snapshot(out.stats);
    return out;
}

std::vector<RunOutput>
runLockstep(const MaterializedTrace &trace,
            const std::string &mechanism,
            const std::vector<const RunConfig *> &cfgs)
{
    const std::size_t V = cfgs.size();
    std::vector<RunOutput> outs(V);
    std::vector<std::unique_ptr<Member>> members(V);
    LockstepGroup group;
    for (std::size_t v = 0; v < V; ++v) {
        members[v] =
            std::make_unique<Member>(trace, mechanism, *cfgs[v], outs[v]);
        group.add(members[v]->core, members[v]->hier);
    }

    group.run(trace.view());

    for (std::size_t v = 0; v < V; ++v) {
        outs[v].core = group.result(v);
        members[v]->stats.snapshot(outs[v].stats);
    }
    return outs;
}

void
MatrixResult::buildIndices()
{
    _mech_index.clear();
    _mech_index.reserve(mechanisms.size());
    for (std::size_t i = 0; i < mechanisms.size(); ++i)
        _mech_index.emplace(mechanisms[i], i);
    _bench_index.clear();
    _bench_index.reserve(benchmarks.size());
    for (std::size_t i = 0; i < benchmarks.size(); ++i)
        _bench_index.emplace(benchmarks[i], i);
}

std::size_t
MatrixResult::mechIndex(const std::string &name) const
{
    if (!_mech_index.empty()) {
        auto it = _mech_index.find(name);
        if (it != _mech_index.end())
            return it->second;
    } else {
        // Hand-assembled result without buildIndices(): stay correct.
        auto it = std::find(mechanisms.begin(), mechanisms.end(), name);
        if (it != mechanisms.end())
            return static_cast<std::size_t>(it - mechanisms.begin());
    }
    fatal("mechanism not in matrix: ", name);
}

std::size_t
MatrixResult::benchIndex(const std::string &name) const
{
    if (!_bench_index.empty()) {
        auto it = _bench_index.find(name);
        if (it != _bench_index.end())
            return it->second;
    } else {
        auto it = std::find(benchmarks.begin(), benchmarks.end(), name);
        if (it != benchmarks.end())
            return static_cast<std::size_t>(it - benchmarks.begin());
    }
    fatal("benchmark not in matrix: ", name);
}

double
MatrixResult::speedup(std::size_t m, std::size_t b) const
{
    const std::size_t base = mechIndex("Base");
    const double base_ipc = ipc[base][b];
    if (base_ipc <= 0.0)
        return 1.0;
    return ipc[m][b] / base_ipc;
}

double
MatrixResult::avgSpeedup(std::size_t m,
                         const std::vector<std::size_t> &subset) const
{
    std::vector<std::size_t> idx = subset;
    if (idx.empty()) {
        idx.resize(benchmarks.size());
        for (std::size_t b = 0; b < benchmarks.size(); ++b)
            idx[b] = b;
    }
    double sum = 0.0;
    for (const std::size_t b : idx)
        sum += speedup(m, b);
    return idx.empty() ? 1.0 : sum / static_cast<double>(idx.size());
}

} // namespace microlib

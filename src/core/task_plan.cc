#include "core/task_plan.hh"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "core/result_store.hh"
#include "sim/fingerprint.hh"
#include "sim/options.hh"

namespace microlib
{

std::string
ShardSpec::str() const
{
    std::string s = std::to_string(index);
    s += '/';
    s += std::to_string(count ? count : 1);
    return s;
}

bool
ShardSpec::parse(const std::string &text, ShardSpec &out)
{
    const auto slash = text.find('/');
    std::uint64_t i = 0, n = 0;
    if (slash == std::string::npos ||
        !parseCount(text.substr(0, slash), i) ||
        !parseCount(text.substr(slash + 1), n, 1) || i >= n)
        return false;
    out.index = static_cast<std::size_t>(i);
    out.count = static_cast<std::size_t>(n);
    return true;
}

std::string
traceCacheKey(const std::string &benchmark, const RunConfig &cfg)
{
    // benchmark + the shared window description (experiment.cc):
    // the same string the result-store fingerprint mixes in.
    std::string key = benchmark;
    key += '\0';
    key += windowKey(cfg);
    return key;
}

TaskPlan::TaskPlan(const SweepSpec &spec)
    : _spec(spec), _mechanisms(spec.mechanisms()),
      _benchmarks(spec.benchmarks())
{
    // Resolve every variant once: config, fingerprint, display name.
    const std::vector<ConfigVariant> variants = _spec.variants();
    _variant_names.reserve(variants.size());
    _cfgs.reserve(variants.size());
    _config_hashes.reserve(variants.size());
    _cell_hashes.reserve(variants.size() * _mechanisms.size());
    for (const auto &v : variants) {
        _variant_names.push_back(v.name);
        _cfgs.push_back(_spec.resolve(v));
        _config_hashes.push_back(fingerprintConfig(_cfgs.back()));
        for (const auto &m : _mechanisms)
            _cell_hashes.push_back(fingerprintCell(_cfgs.back(), m));
    }

    // Trace slots: unique (benchmark, window) pairs. Variants that
    // leave the window untouched map to one slot, so the backends
    // materialize each shared trace exactly once.
    const std::size_t V = _cfgs.size();
    _task_slot.resize(_benchmarks.size() * V);
    std::unordered_map<std::string, std::size_t> slot_of;
    for (std::size_t b = 0; b < _benchmarks.size(); ++b) {
        for (std::size_t v = 0; v < V; ++v) {
            std::string key = traceCacheKey(_benchmarks[b], _cfgs[v]);
            auto it = slot_of.find(key);
            if (it == slot_of.end()) {
                it = slot_of.emplace(key, _slot_keys.size()).first;
                _slot_keys.push_back(std::move(key));
            }
            _task_slot[b * V + v] = it->second;
        }
    }

    // Canonical order: benchmark varies slowest, then variant, then
    // mechanism — one benchmark's tasks (all variants) are contiguous
    // so its trace(s) can be dropped soon after its block drains, and
    // a one-variant plan reduces to the historic b * M + m indices.
    // The flat index IS the slot assignment and the shard unit;
    // nothing about execution may change it.
    _tasks.reserve(_mechanisms.size() * _benchmarks.size() * V);
    for (std::size_t b = 0; b < _benchmarks.size(); ++b)
        for (std::size_t v = 0; v < V; ++v)
            for (std::size_t m = 0; m < _mechanisms.size(); ++m)
                _tasks.push_back(
                    {(b * V + v) * _mechanisms.size() + m, m, b, v});
}

ResultKey
TaskPlan::resultKey(std::size_t index) const
{
    const PlanTask &t = _tasks[index];
    return makeResultKey(_benchmarks[t.b], _mechanisms[t.m],
                         _cell_hashes[t.v * _mechanisms.size() + t.m]);
}

SweepResult
TaskPlan::emptyResult() const
{
    SweepResult res;
    res.variants = _variant_names;
    res.matrices.reserve(variantCount());
    for (std::size_t v = 0; v < variantCount(); ++v) {
        MatrixResult m;
        m.mechanisms = _mechanisms;
        m.benchmarks = _benchmarks;
        m.ipc.assign(_mechanisms.size(),
                     std::vector<double>(_benchmarks.size(), 0.0));
        m.outputs.assign(_mechanisms.size(),
                         std::vector<RunOutput>(_benchmarks.size()));
        m.fault.assign(_mechanisms.size(),
                       std::vector<char>(_benchmarks.size(), 0));
        m.buildIndices();
        res.matrices.push_back(std::move(m));
    }
    return res;
}

std::vector<std::size_t>
TaskPlan::shardTasks(const ShardSpec &shard) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < _tasks.size(); ++i)
        if (inShard(i, shard))
            out.push_back(i);
    return out;
}

std::vector<std::size_t>
TaskPlan::pendingTasks(const std::vector<char> &done,
                       const ShardSpec &shard) const
{
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < _tasks.size(); ++i)
        if (!done[i] && inShard(i, shard))
            out.push_back(i);
    return out;
}

std::vector<std::pair<std::size_t, std::size_t>>
TaskPlan::sharedKeyTasks(const std::vector<char> &done,
                         const ShardSpec &shard) const
{
    std::vector<std::pair<std::size_t, std::size_t>> shared;
    std::unordered_map<std::string, std::size_t> first_of;
    for (const std::size_t i : pendingTasks(done, shard)) {
        const auto [it, fresh] = first_of.emplace(resultKey(i).str(), i);
        if (!fresh)
            shared.emplace_back(i, it->second);
    }
    return shared;
}

std::size_t
TaskPlan::prefill(const ResultStore &store, SweepResult &res,
                  std::vector<char> &done) const
{
    std::size_t filled = 0;
    for (std::size_t i = 0; i < _tasks.size(); ++i) {
        if (done[i])
            continue;
        const std::optional<ResultRecord> rec =
            store.find(resultKey(i));
        if (!rec)
            continue;
        const PlanTask &t = _tasks[i];
        MatrixResult &m = res.matrix(t.v);
        m.ipc[t.m][t.b] = rec->core.ipc;
        m.outputs[t.m][t.b] = toRunOutput(*rec);
        done[i] = 1;
        ++filled;
    }
    return filled;
}

std::size_t
TaskPlan::settleQuarantined(std::vector<std::size_t> quarantined,
                            SweepResult &res, std::vector<char> &done,
                            std::vector<std::size_t> &settled) const
{
    std::sort(quarantined.begin(), quarantined.end());
    for (const std::size_t q : quarantined) {
        if (q >= _tasks.size() || done[q])
            continue;
        done[q] = 1;
        const PlanTask &t = _tasks[q];
        res.matrix(t.v).fault[t.m][t.b] = 1;
        settled.push_back(q);
    }
    std::size_t missing = 0;
    while (missing < _tasks.size() && done[missing])
        ++missing;
    return missing;
}

std::vector<std::size_t>
TaskPlan::pendingPerBenchmark(const std::vector<char> &done,
                              const ShardSpec &shard) const
{
    std::vector<std::size_t> counts(_benchmarks.size(), 0);
    for (std::size_t i = 0; i < _tasks.size(); ++i)
        if (!done[i] && inShard(i, shard))
            ++counts[_tasks[i].b];
    return counts;
}

std::string
TaskPlan::describe(std::size_t index, const ShardSpec &shard) const
{
    const PlanTask &t = _tasks[index];
    const ResultKey key = resultKey(index);
    std::ostringstream os;
    os << "task=" << t.index << " shard="
       << (shard.whole() ? 0 : t.index % shard.count) << '/'
       << (shard.whole() ? 1 : shard.count)
       << " bench=" << _benchmarks[t.b]
       << " mech=" << _mechanisms[t.m]
       << " variant=" << _variant_names[t.v]
       << " fp=" << Fingerprint::hexOf(key.config_hash)
       << " seed=" << key.trace_seed;
    return os.str();
}

} // namespace microlib

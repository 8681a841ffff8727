/**
 * @file
 * Workload definitions and the traced-mode per-layer metrics.
 *
 * Host-time layer figures come from three sources:
 *  - spans recorded around the layer calls of this process (trace
 *    layer, plan, store, lockstep groups of in-process sweeps);
 *  - the progress streams of forked workers (service and shard
 *    workloads), whose run/heartbeat/lease events carry their timing;
 *  - the layer ladder, which times OoOCore::run over the workload's
 *    own windows with memory layers added one at a time, then runOne
 *    per mechanism. A layer's cost is the difference of two rungs
 *    (the nanoBench idea of measuring with and without a component).
 * Simulated counts come from the sweep's StatSet snapshots and repeat
 * exactly.
 */

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/registry.hh"
#include "core/result_store.hh"
#include "cpu/ooo_core.hh"
#include "service/protocol.hh"
#include "trace/trace_arena.hh"

#include "driver.hh"
#include "spans.hh"

using namespace microlib;

namespace perfbench
{

namespace
{

const Workload workloads[] = {
    {"cold_simpoint", true, BackendKind::ThreadPool, 1},
    {"warm_matrix", false, BackendKind::ThreadPool, 1},
    {"service_matrix", false, BackendKind::Service, 2},
    {"shard_matrix", false, BackendKind::Shard, 2},
};

/** One progress-stream event, decoded. */
struct Event
{
    std::string name;
    std::string line;
};

std::vector<Event>
readEvents(const std::string &path)
{
    std::vector<Event> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        Event e;
        if (jsonFindString(line, "event", e.name)) {
            e.line = std::move(line);
            out.push_back(std::move(e));
        }
    }
    return out;
}

double
findDouble(const std::string &line, const char *key)
{
    const std::string pat = std::string("\"") + key + "\":";
    const auto p = line.find(pat);
    if (p == std::string::npos)
        return 0.0;
    return std::strtod(line.c_str() + p + pat.size(), nullptr);
}

std::uint64_t
findU64(const std::string &line, const char *key)
{
    std::uint64_t v = 0;
    jsonFindU64(line, key, v);
    return v;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
dirMiB(const std::string &dir)
{
    double bytes = 0.0;
    if (DIR *d = opendir(dir.c_str())) {
        while (dirent *e = readdir(d)) {
            struct stat st{};
            if (stat((dir + "/" + e->d_name).c_str(), &st) == 0 &&
                S_ISREG(st.st_mode))
                bytes += static_cast<double>(st.st_size);
        }
        closedir(d);
    }
    return bytes / (1024.0 * 1024.0);
}

template <typename F>
double
timed(F &&f)
{
    const double t = now();
    f();
    return now() - t;
}

/** Simulated counts summed over every cell of the sweep. */
void
simulatedCounts(const TaskPlan &plan, const SweepResult &res,
                std::map<std::string, double> &out)
{
    std::map<std::string, double> sum;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const PlanTask &t = plan.task(i);
        const MatrixResult &m = res.matrix(t.v);
        if (m.faulted(t.m, t.b))
            continue;
        for (const auto &[name, value] : m.outputs[t.m][t.b].stats) {
            const auto dot = name.rfind('.');
            const std::string field =
                dot == std::string::npos ? name : name.substr(dot + 1);
            if (name.compare(0, 4, "l1d.") == 0 ||
                name.compare(0, 3, "l2.") == 0 ||
                name.compare(0, 5, "dram.") == 0)
                sum[name] += value;
            else if (field == "prefetches_issued" ||
                     field == "prefetches_dropped")
                sum["mech." + field] += value;
        }
    }
    out["mem.l1d.miss_ratio"] =
        ratio(sum["l1d.demand_misses"], sum["l1d.demand_accesses"]);
    out["mem.l2.miss_ratio"] =
        ratio(sum["l2.demand_misses"], sum["l2.demand_accesses"]);
    out["mem.dram.row_hit_ratio"] =
        ratio(sum["dram.row_hits"], sum["dram.row_hits"] +
                                         sum["dram.row_conflicts"] +
                                         sum["dram.row_empty"]);
    out["mem.dram.queue_stalls"] = sum["dram.queue_stalls"];
    out["mem.l1d.mshr_full_stalls"] = sum["l1d.mshr_full_stalls"];
    out["mech.prefetch_accuracy"] =
        ratio(sum["l1d.prefetch_used"] + sum["l2.prefetch_used"],
              sum["l1d.prefetch_fills"] + sum["l2.prefetch_fills"]);
    out["mech.prefetch_drop_ratio"] =
        ratio(sum["mech.prefetches_dropped"],
              sum["mech.prefetches_issued"] +
                  sum["mech.prefetches_dropped"]);
}

/**
 * The ladder over the workload's windows (every trace slot x every
 * variant): rungs time OoOCore::run alone, mechanisms time runOne.
 * cpu.ladder_closure compares the sweep's simulation time predicted
 * from these — per (slot, mechanism) the runOne times of its
 * variants, less the trace pass a lockstep group shares (measured on
 * Base) when the backend runs variants in lockstep — with the traced
 * sweep.
 */
void
ladder(const LayerInputs &in, std::map<std::string, double> &out)
{
    const TaskPlan &plan = in.plan;
    const std::vector<std::string> &mechs = allMechanismNames();
    TraceArena arena(in.arena_dir);
    double n_total = 0.0, t_cpu = 0.0, t_icache = 0.0, t_sdram = 0.0;
    double t_pair_base = 0.0, t_lock_base = 0.0, predicted = 0.0;
    std::map<std::string, double> t_mech;
    const std::size_t nv = plan.variantCount();
    for (std::size_t slot = 0; slot < plan.traceSlotCount(); ++slot) {
        auto trace = arena.tryLoad(plan.slotKey(slot));
        if (!trace)
            continue;
        const double n = static_cast<double>(trace->view().size());
        std::map<std::string, double> slot_mech; // summed over variants
        for (std::size_t v = 0; v < nv; ++v) {
            const RunConfig &cfg = plan.config(v);
            auto rung = [&](bool constant, bool icache) {
                BaselineConfig sys = cfg.system;
                if (constant)
                    sys.hier.memory = MemoryModelKind::ConstantLatency;
                sys.hier.model_icache = icache;
                Hierarchy hier(sys.hier, trace->image);
                OoOCore core(sys.core);
                return timed([&] { core.run(trace->view(), hier); });
            };
            t_cpu += rung(true, false);
            t_icache += rung(true, true);
            t_sdram += rung(false, cfg.system.hier.model_icache);
            for (const std::string &m : mechs) {
                const double t =
                    timed([&] { runOne(*trace, m, cfg); });
                t_mech[m] += t;
                slot_mech[m] += t;
            }
            n_total += n;
        }
        double saved = 0.0;
        if (nv > 1) {
            std::vector<const RunConfig *> cfgs;
            for (std::size_t v = 0; v < nv; ++v)
                cfgs.push_back(&plan.config(v));
            const double t_lock =
                timed([&] { runLockstep(*trace, "Base", cfgs); });
            t_lock_base += t_lock;
            t_pair_base += slot_mech["Base"];
            saved = slot_mech["Base"] - t_lock;
        }
        const bool lockstep =
            in.workload.backend == BackendKind::ThreadPool;
        for (const std::string &m : plan.mechanisms())
            predicted += slot_mech[m] - (lockstep ? saved : 0.0);
    }
    const double ns = 1e9 / std::max(n_total, 1.0);
    out["cpu.ns_per_instr"] = t_cpu * ns;
    out["mem.icache.ns_per_instr"] = t_icache * ns;
    out["mem.sdram.ns_per_instr"] = t_sdram * ns;
    for (const std::string &m : mechs)
        if (m != "Base")
            out["mech." + m + ".ns_per_instr"] =
                (t_mech[m] - t_mech["Base"]) * ns;
    out["cpu.lockstep_speedup"] = ratio(t_pair_base, t_lock_base);
    // Predicted simulation seconds per worker against the measured
    // sweep: ~1 when simulation is the sweep, small when another
    // layer (trace generation) dominates.
    out["cpu.ladder_closure"] =
        ratio(predicted / in.workload.workers,
              in.sweep_end - in.sweep_start);
}

/** Result-store costs at this sweep's store size. */
void
storeCosts(const LayerInputs &in, std::map<std::string, double> &out)
{
    const TaskPlan &plan = in.plan;
    std::size_t puts = 0;
    const double put_s = timed([&] {
        ResultStore replay(in.workdir + "/replay.store");
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const PlanTask &t = plan.task(i);
            const MatrixResult &m = in.result.matrix(t.v);
            if (m.faulted(t.m, t.b))
                continue;
            replay.put(makeRecord(plan.resultKey(i), m.outputs[t.m][t.b]));
            ++puts;
        }
    });
    out["core.store_put_us"] = 1e6 * ratio(put_s, static_cast<double>(puts));
    // A warm-store rerun: open the finished store and prefill the
    // plan from it (it then executes nothing).
    out["core.store_load_s"] = timed([&] {
        ResultStore store(in.store_path, ResultStore::Mode::ReadOnly);
        SweepResult res = plan.emptyResult();
        std::vector<char> done(plan.size(), 0);
        plan.prefill(store, res, done);
    });
    out["core.store_merge_s"] = timed([&] {
        ResultStore merged(in.workdir + "/merged.store");
        merged.merge(in.store_path);
    });
}

/** Group counts and durations from run/heartbeat events. */
void
streamGroups(const LayerInputs &in, std::vector<double> &group_ms,
             std::map<std::string, double> &out)
{
    double events = 0.0, groups = 0.0;
    for (const std::string &path : in.run_streams) {
        std::map<std::uint64_t, double> beat; // task -> heartbeat time
        for (const Event &e : readEvents(path)) {
            if (e.name == "heartbeat") {
                beat[findU64(e.line, "task")] =
                    findDouble(e.line, "elapsed_s");
            } else if (e.name == "run") {
                std::string members;
                const double size =
                    jsonFindString(e.line, "group", members)
                        ? 1.0 + static_cast<double>(std::count(
                                    members.begin(), members.end(), ','))
                        : 1.0;
                events += 1.0;
                groups += 1.0 / size;
                const std::uint64_t task = findU64(e.line, "task");
                if (in.workload.backend != BackendKind::ThreadPool &&
                    beat.count(task))
                    group_ms.push_back(
                        1e3 * (findDouble(e.line, "elapsed_s") -
                               beat[task]));
            }
        }
    }
    out["core.lockstep_group_mean"] = ratio(events, groups);
}

/** Service figures from the daemon stream: lease events name the
 *  worker and the first of a run of plan-adjacent tasks; each
 *  lease's run events carry seconds since that lease started. */
void
serviceFigures(const LayerInputs &in, std::map<std::string, double> &out)
{
    struct Lease
    {
        std::string worker;
        std::uint64_t first = 0, tasks = 0;
    };
    std::vector<Lease> leases;
    std::map<std::uint64_t, double> run_at;
    for (const Event &e : readEvents(in.daemon_stream)) {
        if (e.name == "lease") {
            Lease l;
            jsonFindString(e.line, "worker", l.worker);
            l.first = findU64(e.line, "first");
            l.tasks = findU64(e.line, "tasks");
            leases.push_back(l);
        } else if (e.name == "run") {
            run_at[findU64(e.line, "task")] =
                findDouble(e.line, "elapsed_s");
        }
    }
    std::map<std::string, double> busy;
    double tasks = 0.0, total_busy = 0.0;
    for (const Lease &l : leases) {
        double b = 0.0;
        for (std::uint64_t t = l.first; t < l.first + l.tasks; ++t)
            if (run_at.count(t))
                b = std::max(b, run_at[t]);
        busy[l.worker] += b;
        total_busy += b;
        tasks += static_cast<double>(l.tasks);
    }
    double longest = 0.0;
    for (const auto &[name, b] : busy)
        longest = std::max(longest, b);
    const double sweep_s = in.sweep_end - in.sweep_start;
    double first = 0.0;
    for (const auto &[t, line] : in.daemon_tail) {
        std::string ev;
        if (jsonFindString(line, "event", ev) && ev == "run") {
            first = t;
            break;
        }
    }
    out["service.leases"] = static_cast<double>(leases.size());
    out["service.tasks_per_lease"] =
        ratio(tasks, static_cast<double>(leases.size()));
    out["service.first_result_s"] = first;
    out["service.worker_idle_frac"] =
        1.0 - ratio(total_busy, in.workload.workers * sweep_s);
    out["service.orchestration_s"] = sweep_s - longest;
}

/** Shard figures: busy time per shard from its own stream, and the
 *  parent's merge tail from its spans. */
void
shardFigures(const LayerInputs &in, const std::vector<Span> &all,
             std::map<std::string, double> &out)
{
    std::vector<double> busy;
    for (const std::string &path : in.run_streams) {
        double b = 0.0;
        for (const Event &e : readEvents(path))
            if (e.name == "run")
                b = std::max(b, findDouble(e.line, "elapsed_s"));
        busy.push_back(b);
    }
    double sum = 0.0, most = 0.0;
    for (const double b : busy) {
        sum += b;
        most = std::max(most, b);
    }
    out["shard.imbalance"] =
        ratio(most, sum / static_cast<double>(std::max<std::size_t>(
                                  busy.size(), 1)));
    double merge_start = -1.0, execute_end = 0.0;
    for (const Span &s : all) {
        if (s.name == "ResultStore::merge" && merge_start < 0.0)
            merge_start = s.start;
        if (s.name == "ProcessShardBackend::execute")
            execute_end = s.end;
    }
    out["shard.merge_s"] =
        merge_start < 0.0 ? 0.0 : execute_end - merge_start;
}

/**
 * Record one "worker.task" span per task a forked worker ran, under
 * the backend's execute span: from heartbeat to run event. Shard
 * streams time these from the worker's own start; the service daemon
 * relays lease-relative times, so those spans use the moment the
 * client saw each line instead.
 */
void
workerSpans(const LayerInputs &in, const std::vector<Span> &all)
{
    const bool service = in.workload.backend == BackendKind::Service;
    const std::string parent_name = service
                                        ? "ServiceBackend::execute"
                                        : "ProcessShardBackend::execute";
    int parent = -1;
    for (std::size_t i = 0; i < all.size(); ++i)
        if (all[i].name == parent_name)
            parent = static_cast<int>(i);
    if (parent < 0)
        return;
    const Span &p = all[parent];
    auto add = [&](double start, double end) {
        start = std::clamp(start, p.start, p.end);
        addSpan("worker.task", start, std::clamp(end, start, p.end),
                parent);
    };
    std::map<std::uint64_t, double> beat;
    if (service) {
        for (const auto &[t, line] : in.daemon_tail) {
            std::string ev;
            jsonFindString(line, "event", ev);
            const std::uint64_t task = findU64(line, "task");
            if (ev == "heartbeat")
                beat[task] = t;
            else if (ev == "run" && beat.count(task))
                add(in.sweep_start + beat[task], in.sweep_start + t);
        }
        return;
    }
    for (const std::string &path : in.run_streams) {
        beat.clear();
        for (const Event &e : readEvents(path)) {
            const std::uint64_t task = findU64(e.line, "task");
            const double t = p.start + findDouble(e.line, "elapsed_s");
            if (e.name == "heartbeat")
                beat[task] = t;
            else if (e.name == "run" && beat.count(task))
                add(beat[task], t);
        }
    }
}

} // namespace

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : workloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

std::string
specText(const Workload &w, std::uint64_t seed, bool tiny)
{
    std::ostringstream os;
    os << "sweep-spec v1\n";
    if (w.simpoint) {
        // examples/sensitivity.sweep at seed 0.
        os << (tiny ? "bench pchase\nmech Base TP\n"
                    : "bench pchase swim gzip\nmech Base TP GHB\n")
           << "base window.trace_length="
           << (tiny ? 20000 : 100000) + 500 * (seed % 16) << "\n"
           << "base window.interval=100000\n";
    } else {
        os << "bench "
           << (tiny ? "pchase gzip" : "pchase swim mcf gzip") << "\n"
           << "mech";
        if (tiny) {
            os << " Base TP";
        } else {
            for (const std::string &m : allMechanismNames())
                os << ' ' << m;
        }
        os << "\nbase window.selection=arbitrary\n"
           << "base window.skip=" << 1000000 + 1000 * (seed % 64) << "\n"
           << "base window.length=" << (tiny ? 20000 : 250000) << "\n";
    }
    os << "axis hier.l2.size 256k 1M\n";
    return os.str();
}

std::map<std::string, double>
layerMetrics(const LayerInputs &in)
{
    std::map<std::string, double> out;
    const std::vector<Span> all = spans();
    const std::map<std::string, double> total = totalSeconds(all);
    const std::map<std::string, std::size_t> count = spanCounts(all);
    auto sec = [&](const char *name) {
        const auto it = total.find(name);
        return it == total.end() ? 0.0 : it->second;
    };
    auto cnt = [&](const char *name) {
        const auto it = count.find(name);
        return it == count.end() ? 0.0 : static_cast<double>(it->second);
    };

    // Trace layer: this process's calls (the cold sweep, or the
    // prewarm) plus, for forked workers, their stream's trace events.
    double gen_events = 0.0, map_events = 0.0;
    if (in.workload.backend != BackendKind::ThreadPool) {
        for (const std::string &path : in.run_streams)
            for (const Event &e : readEvents(path)) {
                std::string src;
                if (e.name == "trace" &&
                    jsonFindString(e.line, "src", src))
                    (src == "gen" ? gen_events : map_events) += 1.0;
            }
    }
    out["trace.simpoint_s"] = sec("findSimPoint");
    out["trace.generate_s"] = sec("materialize");
    out["trace.publish_s"] = sec("TraceArena::publish");
    out["trace.map_s"] = sec("TraceArena::tryLoad");
    out["trace.windows_generated"] = cnt("materialize") + gen_events;
    out["trace.windows_mapped"] =
        static_cast<double>(arenaHits()) + map_events;
    out["trace.arena_mb"] = dirMiB(in.arena_dir);

    // Lockstep groups: spans in-process, streams across processes.
    std::vector<double> group_ms;
    if (in.workload.backend == BackendKind::ThreadPool)
        for (const Span &s : all)
            if (s.name == "runLockstep" || s.name == "runOne")
                group_ms.push_back(1e3 * (s.end - s.start));
    streamGroups(in, group_ms, out);
    out["cpu.group_p50_ms"] = percentile(group_ms, 0.5);
    out["cpu.group_p80_ms"] = percentile(group_ms, 0.8);

    out["core.plan_s"] = sec("TaskPlan");
    out["core.report_s"] = in.report_s;
    simulatedCounts(in.plan, in.result, out);

    for (const char *name :
         {"service.leases", "service.tasks_per_lease",
          "service.first_result_s", "service.worker_idle_frac",
          "service.orchestration_s", "shard.imbalance", "shard.merge_s"})
        out[name] = 0.0; // not applicable to this workload's backend
    if (in.workload.backend == BackendKind::Service)
        serviceFigures(in, out);
    if (in.workload.backend == BackendKind::Shard)
        shardFigures(in, all, out);
    if (in.workload.backend != BackendKind::ThreadPool)
        workerSpans(in, all);

    storeCosts(in, out);
    ladder(in, out);
    return out;
}

} // namespace perfbench

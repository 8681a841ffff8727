/**
 * @file
 * Shared declarations of the benchmark driver: workloads, the sweep
 * spec each one runs, and the traced-mode layer metrics.
 */

#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/sweep_spec.hh"
#include "core/task_plan.hh"

namespace perfbench
{

enum class BackendKind
{
    ThreadPool, ///< in-process, one thread, lockstep groups
    Service,    ///< daemon + pull workers, forked from the driver
    Shard,      ///< ProcessShardBackend, forked shard workers
};

/** One named workload of BENCHMARK.json. */
struct Workload
{
    const char *name;
    bool simpoint;   ///< SimPoint windows, cold arena (else arbitrary
                     ///< windows, arena prewarmed during setup)
    BackendKind backend;
    unsigned workers; ///< simulation processes (1 = the driver)
};

/** The workload named @p name, or nullptr. */
const Workload *findWorkload(const std::string &name);

/**
 * The `.sweep` text workload @p w runs for @p seed. The seed moves
 * the generated windows but keeps the work constant: for SimPoint
 * windows it lengthens the window by a multiple of 500 instructions
 * (moving the SimPoint itself would change the profiling and
 * generation work up to twofold); for arbitrary windows it moves the
 * window start by a multiple of 1000 instructions. @p tiny selects
 * the small spec the benchmark's own tests run.
 */
std::string specText(const Workload &w, std::uint64_t seed, bool tiny);

/** Host time spent in each wrapped layer call plus the
 *  stream-derived multi-process figures; see layers.cc. */
struct LayerInputs
{
    const Workload &workload;
    const microlib::TaskPlan &plan;
    const microlib::SweepResult &result;
    std::string workdir;
    std::string arena_dir;
    std::string store_path;
    std::vector<std::string> run_streams; ///< files holding run events
    std::string daemon_stream;            ///< service only
    /** Service only: (seconds since sweep start, line) of the daemon
     *  stream as the client saw each line appear. */
    std::vector<std::pair<double, std::string>> daemon_tail;
    double sweep_start = 0.0; ///< perfbench::now() clock
    double sweep_end = 0.0;
    double report_s = 0.0;
};

/** Every per-layer metric the traced run reports, except the two
 *  run.py derives from several driver processes (trace_overhead_frac,
 *  task_fail_ratio). */
std::map<std::string, double> layerMetrics(const LayerInputs &in);

} // namespace perfbench

#endif // PERFBENCH_DRIVER_HH

/**
 * @file
 * Experiment engine: the run matrix behind every figure and table.
 *
 * A run = (benchmark trace window) x (mechanism) x (system config).
 * Each benchmark's trace window is materialized once and shared by
 * all mechanisms, so comparisons see bit-identical inputs — the
 * methodological discipline the paper argues for.
 */

#ifndef MICROLIB_CORE_EXPERIMENT_HH
#define MICROLIB_CORE_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/baseline_config.hh"
#include "core/mechanism.hh"
#include "core/registry.hh"
#include "cpu/ooo_core.hh"
#include "trace/window.hh"

namespace microlib
{

/** Which slice of a benchmark is simulated (Figure 11). */
enum class TraceSelection
{
    SimPoint,  ///< BBV + k-means chosen representative window
    Arbitrary, ///< "skip N, simulate M"
};

/** Configuration of one experiment run. */
struct RunConfig
{
    BaselineConfig system = makeBaseline();
    TraceSelection selection = TraceSelection::SimPoint;
    TraceScale scale = makeTraceScale();
    MechanismConfig mech;
};

/** Outcome of one run. */
struct RunOutput
{
    std::string benchmark;
    std::string mechanism;
    CoreResult core;
    std::map<std::string, double> stats; ///< full StatSet snapshot

    double ipc() const { return core.ipc; }
    double stat(const std::string &name) const;
};

/**
 * Canonical string describing the trace window @p cfg selects — the
 * selection mode plus every scale field that shapes the window, but
 * not the benchmark. traceCacheKey() (core/task_plan.hh) appends
 * this to the benchmark name to key the trace cache, and the result
 * store mixes it into the config fingerprint, so "same window" means
 * exactly one thing across both subsystems. Deliberately built from
 * the raw scale parameters, not the resolved SimPoint choice:
 * computing the key must never trigger BBV profiling.
 */
std::string windowKey(const RunConfig &cfg);

/**
 * The (skip, length) window @p cfg selects for @p benchmark: the
 * SimPoint start (profiled once per (benchmark, interval, k) in the
 * process-wide TraceCache, so the lookup is thread-safe) or the
 * arbitrary window's fixed skip.
 */
TraceWindow resolveWindow(const std::string &benchmark,
                          const RunConfig &cfg);

/**
 * The trace window for @p benchmark under @p cfg (resolveWindow()),
 * materialized fresh on every call.
 *
 * Prefer ExperimentEngine::trace(), which also caches and shares the
 * materialized records; this standalone fallback is kept for code
 * that wants an owned copy.
 */
MaterializedTrace materializeFor(const std::string &benchmark,
                                 const RunConfig &cfg);

/** Run one mechanism over an already materialized trace. */
RunOutput runOne(const MaterializedTrace &trace,
                 const std::string &mechanism, const RunConfig &cfg);

/**
 * Run V config variants of @p mechanism over @p trace in lockstep:
 * one SoA trace pass, V independent (hierarchy, mechanism, core)
 * instances advanced per block (cpu/lockstep.hh). Outputs are in
 * @p cfgs order and bit-identical — every CoreResult and stat — to V
 * separate runOne() calls; the per-variant path is the oracle
 * (tests/test_lockstep.cc). The configs may differ in anything that
 * leaves the trace window untouched. No sweep calls this; see
 * cpu/lockstep.hh.
 */
std::vector<RunOutput>
runLockstep(const MaterializedTrace &trace, const std::string &mechanism,
            const std::vector<const RunConfig *> &cfgs);

/** IPCs (and outputs) for mechanisms x benchmarks. */
struct MatrixResult
{
    std::vector<std::string> mechanisms;
    std::vector<std::string> benchmarks;
    /** ipc[m][b] indexed like the name vectors. */
    std::vector<std::vector<double>> ipc;
    std::vector<std::vector<RunOutput>> outputs;
    /** fault[m][b] != 0 marks a quarantined cell: the task repeatedly
     *  crashed or wedged its worker and was excluded by supervision,
     *  so ipc/outputs hold no result there. Reports render such
     *  cells as FAULT; numeric consumers must skip them. Empty (not
     *  just zero) when the matrix predates supervision. */
    std::vector<std::vector<char>> fault;

    /**
     * Rebuild the name -> index maps behind mechIndex()/benchIndex()
     * from the current name vectors. The engine and the bench cache
     * loader call this; call it yourself after assembling a
     * MatrixResult by hand if you query indices in a hot loop (the
     * lookups fall back to a linear scan otherwise).
     */
    void buildIndices();

    std::size_t mechIndex(const std::string &name) const;
    std::size_t benchIndex(const std::string &name) const;

    /** Whether cell (@p m, @p b) was quarantined (see `fault`). */
    bool faulted(std::size_t m, std::size_t b) const
    {
        return !fault.empty() && fault[m][b] != 0;
    }

    /** Speedup of mechanism @p m on benchmark @p b vs "Base". */
    double speedup(std::size_t m, std::size_t b) const;

    /** Arithmetic mean speedup of mechanism @p m over a benchmark
     *  subset (empty = all). */
    double avgSpeedup(std::size_t m,
                      const std::vector<std::size_t> &subset = {}) const;

  private:
    /** Prebuilt lookups; empty until buildIndices() runs. */
    std::unordered_map<std::string, std::size_t> _mech_index;
    std::unordered_map<std::string, std::size_t> _bench_index;
};

} // namespace microlib

#endif // MICROLIB_CORE_EXPERIMENT_HH

/** @file ExperimentEngine scheduler tests: determinism across worker
 *  counts (every task equal to its own runOne, config variants
 *  included), trace sharing across matrices, and the trace
 *  endpoint. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/scheduler.hh"
#include "core/task_plan.hh"
#include "sim/logging.hh"

#include "spec_helpers.hh"

using namespace microlib;

namespace
{

/** 100k-instruction windows of either selection mode. */
const Settings quick = {{"window.trace_length", "100000"},
                        {"window.interval", "100000"},
                        {"window.skip", "50000"},
                        {"window.length", "100000"}};

/** @p mechs x @p benchs under @p settings, run on @p engine. */
MatrixResult
matrix(ExperimentEngine &engine, const std::vector<std::string> &mechs,
       const std::vector<std::string> &benchs,
       const Settings &settings = quick)
{
    return engine.run(specOf(mechs, benchs, settings)).matrix(0);
}

MatrixResult
runWithThreads(unsigned threads)
{
    EngineOptions opts;
    opts.threads = threads;
    ExperimentEngine engine(opts);
    return matrix(engine, {"Base", "TP", "SP", "GHB"},
                  {"swim", "gzip", "crafty"});
}

/** Full bit-identity: IPC matrix and every per-run stat snapshot. */
void
expectIdentical(const MatrixResult &a, const MatrixResult &b)
{
    ASSERT_EQ(a.mechanisms, b.mechanisms);
    ASSERT_EQ(a.benchmarks, b.benchmarks);
    for (std::size_t m = 0; m < a.mechanisms.size(); ++m) {
        for (std::size_t bi = 0; bi < a.benchmarks.size(); ++bi) {
            // Exact equality, not near-equality: scheduling order
            // must never leak into results.
            EXPECT_EQ(a.ipc[m][bi], b.ipc[m][bi])
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
            const CoreResult &ca = a.outputs[m][bi].core;
            const CoreResult &cb = b.outputs[m][bi].core;
            EXPECT_EQ(ca.instructions, cb.instructions);
            EXPECT_EQ(ca.cycles, cb.cycles);
            EXPECT_EQ(ca.loads, cb.loads);
            EXPECT_EQ(ca.stores, cb.stores);
            EXPECT_EQ(ca.branches, cb.branches);
            EXPECT_EQ(ca.mispredicts, cb.mispredicts);
            EXPECT_EQ(a.outputs[m][bi].stats, b.outputs[m][bi].stats)
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
            EXPECT_EQ(a.outputs[m][bi].benchmark, a.benchmarks[bi]);
            EXPECT_EQ(a.outputs[m][bi].mechanism, a.mechanisms[m]);
        }
    }
}

} // namespace

TEST(Scheduler, BitIdenticalAcrossWorkerCounts)
{
    const MatrixResult serial = runWithThreads(1);
    const MatrixResult four = runWithThreads(4);
    const MatrixResult eight = runWithThreads(8);
    expectIdentical(serial, four);
    expectIdentical(serial, eight);
}

TEST(Scheduler, VariantSweepMatchesRunOneAcrossWorkerCounts)
{
    // Three L2-size variants share each benchmark's trace slot. Every
    // task must equal its own runOne over a materializeFor trace, in
    // its own slot, whatever the worker count.
    SweepSpec spec =
        specOf({"Base", "TP"}, {"swim", "gzip", "mcf"}, quick);
    std::string error;
    ASSERT_TRUE(spec.addAxis("hier.l2.size", {"256k", "512k", "1M"},
                             &error))
        << error;
    const TaskPlan plan(spec);
    ASSERT_EQ(plan.traceSlotCount(), 3u);

    SweepResult oracle = plan.emptyResult();
    std::vector<std::unique_ptr<MaterializedTrace>> traces(
        plan.traceSlotCount());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const PlanTask &t = plan.task(i);
        const RunConfig &cfg = plan.config(t.v);
        auto &trace = traces[plan.traceSlot(i)];
        if (!trace)
            trace = std::make_unique<MaterializedTrace>(
                materializeFor(plan.benchmarks()[t.b], cfg));
        MatrixResult &m = oracle.matrix(t.v);
        m.outputs[t.m][t.b] = runOne(*trace, plan.mechanisms()[t.m], cfg);
        m.ipc[t.m][t.b] = m.outputs[t.m][t.b].core.ipc;
    }

    for (const unsigned threads : {1u, 4u, 8u}) {
        ExperimentEngine engine(EngineOptions{.threads = threads});
        const SweepResult res = engine.run(spec);
        ASSERT_EQ(res.variants, oracle.variants);
        for (std::size_t v = 0; v < res.matrices.size(); ++v)
            expectIdentical(oracle.matrix(v), res.matrix(v));
    }
}

TEST(Scheduler, DefaultEngineHonorsThreadsEnv)
{
    std::vector<MatrixResult> results;
    for (const unsigned threads : {1u, 8u}) {
        setenv("MICROLIB_THREADS", std::to_string(threads).c_str(), 1);
        ExperimentEngine engine;
        EXPECT_EQ(engine.threads(), threads);
        results.push_back(
            matrix(engine, {"Base", "GHB"}, {"swim", "mcf"}));
    }
    unsetenv("MICROLIB_THREADS");
    expectIdentical(results[0], results[1]);
}

TEST(Scheduler, EngineReuseAcrossMatrices)
{
    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);

    const MatrixResult first =
        matrix(engine, {"Base", "TP"}, {"swim", "gzip"});
    EXPECT_EQ(engine.cache().traceCount(), 2u);

    // A second matrix over the same windows reuses both traces...
    const MatrixResult second =
        matrix(engine, {"Base", "SP"}, {"swim", "gzip"});
    EXPECT_EQ(engine.cache().traceCount(), 2u);

    // ...and sees the exact same baseline numbers.
    for (std::size_t b = 0; b < 2; ++b)
        EXPECT_EQ(first.ipc[0][b], second.ipc[0][b]);
}

TEST(Scheduler, ConfigsWithSameWindowShareTraces)
{
    // Figure 9's setup: finite vs infinite MSHR differ only in the
    // system config, so both matrices must share one trace per
    // benchmark.
    Settings infinite = quick;
    infinite.push_back({"hier.finite_mshr", "0"});

    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);
    matrix(engine, {"Base", "TK"}, {"swim"});
    matrix(engine, {"Base", "TK"}, {"swim"}, infinite);
    EXPECT_EQ(engine.cache().traceCount(), 1u);

    // Different windows do make a new entry.
    Settings other = quick;
    other.push_back({"window.selection", "arbitrary"});
    matrix(engine, {"Base"}, {"swim"}, other);
    EXPECT_EQ(engine.cache().traceCount(), 2u);
}

TEST(Scheduler, TraceEndpointSharesWithMatrixRuns)
{
    const RunConfig cfg = configOf(quick);
    ExperimentEngine engine(EngineOptions{.threads = 1});
    const auto direct = engine.trace("swim", cfg);
    matrix(engine, {"Base"}, {"swim"});
    EXPECT_EQ(engine.cache().traceCount(), 1u);
    const auto again = engine.trace("swim", cfg);
    EXPECT_EQ(direct.get(), again.get());
}

TEST(Scheduler, EmptyMatrixIsFine)
{
    // A default spec names no benchmark and no mechanism: a 0-task
    // plan runs nothing and returns one empty matrix.
    const SweepSpec empty;
    EXPECT_TRUE(TaskPlan(empty).empty());
    ExperimentEngine engine(EngineOptions{.threads = 2});
    const SweepResult res = engine.run(empty);
    ASSERT_EQ(res.matrices.size(), 1u);
    EXPECT_TRUE(res.matrix(0).ipc.empty());
    EXPECT_EQ(engine.lastRun().executed, 0u);
}

TEST(Scheduler, MatchesStandaloneRunOne)
{
    // The engine must produce exactly what a hand-rolled
    // materializeFor + runOne produces: same traces, same numbers.
    const RunConfig cfg = configOf(quick);
    ExperimentEngine engine(EngineOptions{.threads = 4});
    const MatrixResult res =
        matrix(engine, {"Base", "GHB"}, {"crafty"});
    const MaterializedTrace trace = materializeFor("crafty", cfg);
    EXPECT_EQ(res.ipc[0][0], runOne(trace, "Base", cfg).ipc());
    EXPECT_EQ(res.ipc[1][0], runOne(trace, "GHB", cfg).ipc());
}

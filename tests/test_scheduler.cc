/** @file ExperimentEngine scheduler tests: determinism across worker
 *  counts, trace sharing across matrices, and the trace endpoint. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "core/scheduler.hh"
#include "sim/logging.hh"

using namespace microlib;

namespace
{

RunConfig
quickConfig()
{
    RunConfig cfg;
    cfg.scale.simpoint_trace = 100'000;
    cfg.scale.simpoint_interval = 100'000;
    cfg.scale.arbitrary_skip = 50'000;
    cfg.scale.arbitrary_length = 100'000;
    return cfg;
}

MatrixResult
runWithThreads(unsigned threads, const RunConfig &cfg)
{
    EngineOptions opts;
    opts.threads = threads;
    ExperimentEngine engine(opts);
    return engine.run({"Base", "TP", "SP", "GHB"},
                      {"swim", "gzip", "crafty"}, cfg);
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
    const RunConfig cfg = quickConfig();
    const MatrixResult serial = runWithThreads(1, cfg);
    const MatrixResult four = runWithThreads(4, cfg);
    const MatrixResult eight = runWithThreads(8, cfg);
    expectIdentical(serial, four);
    expectIdentical(serial, eight);
}

TEST(Scheduler, DefaultEngineHonorsThreadsEnv)
{
    const RunConfig cfg = quickConfig();
    std::vector<MatrixResult> results;
    for (const unsigned threads : {1u, 8u}) {
        setenv("MICROLIB_THREADS", std::to_string(threads).c_str(), 1);
        ExperimentEngine engine;
        EXPECT_EQ(engine.threads(), threads);
        results.push_back(
            engine.run({"Base", "GHB"}, {"swim", "mcf"}, cfg));
    }
    unsetenv("MICROLIB_THREADS");
    expectIdentical(results[0], results[1]);
}

TEST(Scheduler, EngineReuseAcrossMatrices)
{
    const RunConfig cfg = quickConfig();
    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);

    const MatrixResult first =
        engine.run({"Base", "TP"}, {"swim", "gzip"}, cfg);
    EXPECT_EQ(engine.cache().traceCount(), 2u);

    // A second matrix over the same windows reuses both traces...
    const MatrixResult second =
        engine.run({"Base", "SP"}, {"swim", "gzip"}, cfg);
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
    const RunConfig finite = quickConfig();
    RunConfig infinite = quickConfig();
    infinite.system.hier.l1d.finite_mshr = false;
    infinite.system.hier.l1i.finite_mshr = false;
    infinite.system.hier.l2.finite_mshr = false;

    EngineOptions opts;
    opts.threads = 2;
    ExperimentEngine engine(opts);
    engine.run({"Base", "TK"}, {"swim"}, finite);
    engine.run({"Base", "TK"}, {"swim"}, infinite);
    EXPECT_EQ(engine.cache().traceCount(), 1u);

    // Different windows do make a new entry.
    RunConfig other = quickConfig();
    other.selection = TraceSelection::Arbitrary;
    engine.run({"Base"}, {"swim"}, other);
    EXPECT_EQ(engine.cache().traceCount(), 2u);
}

TEST(Scheduler, TraceEndpointSharesWithMatrixRuns)
{
    const RunConfig cfg = quickConfig();
    ExperimentEngine engine(EngineOptions{.threads = 1});
    const auto direct = engine.trace("swim", cfg);
    engine.run({"Base"}, {"swim"}, cfg);
    EXPECT_EQ(engine.cache().traceCount(), 1u);
    const auto again = engine.trace("swim", cfg);
    EXPECT_EQ(direct.get(), again.get());
}

TEST(Scheduler, EmptyMatrixIsFine)
{
    const RunConfig cfg = quickConfig();
    ExperimentEngine engine(EngineOptions{.threads = 2});
    const MatrixResult no_mechs = engine.run({}, {"swim"}, cfg);
    EXPECT_TRUE(no_mechs.ipc.empty());
    const MatrixResult no_benchs = engine.run({"Base"}, {}, cfg);
    ASSERT_EQ(no_benchs.ipc.size(), 1u);
    EXPECT_TRUE(no_benchs.ipc[0].empty());
}

TEST(Scheduler, MatchesStandaloneRunOne)
{
    // The engine must produce exactly what a hand-rolled
    // materializeFor + runOne produces: same traces, same numbers.
    const RunConfig cfg = quickConfig();
    ExperimentEngine engine(EngineOptions{.threads = 4});
    const MatrixResult res =
        engine.run({"Base", "GHB"}, {"crafty"}, cfg);
    const MaterializedTrace trace = materializeFor("crafty", cfg);
    EXPECT_EQ(res.ipc[0][0], runOne(trace, "Base", cfg).ipc());
    EXPECT_EQ(res.ipc[1][0], runOne(trace, "GHB", cfg).ipc());
}

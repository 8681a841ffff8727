/** @file Integration tests for the experiment engine. */

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/experiment.hh"
#include "core/scheduler.hh"
#include "core/selections.hh"
#include "trace/spec_suite.hh"

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

/** The @p mechanisms x @p benchmarks matrix on a fresh engine with
 *  default options. */
MatrixResult
freshMatrix(const std::vector<std::string> &mechanisms,
            const std::vector<std::string> &benchmarks,
            const RunConfig &cfg)
{
    ExperimentEngine engine;
    return engine.run(mechanisms, benchmarks, cfg);
}

} // namespace

TEST(Experiment, RunOneDeterministic)
{
    const RunConfig cfg = quickConfig();
    const MaterializedTrace trace = materializeFor("crafty", cfg);
    const RunOutput a = runOne(trace, "Base", cfg);
    const RunOutput b = runOne(trace, "Base", cfg);
    EXPECT_DOUBLE_EQ(a.ipc(), b.ipc());
    EXPECT_EQ(a.stats, b.stats);
}

TEST(Experiment, SelectionsProduceDifferentWindows)
{
    RunConfig sp = quickConfig();
    RunConfig arb = quickConfig();
    arb.selection = TraceSelection::Arbitrary;
    const MaterializedTrace a = materializeFor("gcc", sp);
    const MaterializedTrace b = materializeFor("gcc", arb);
    EXPECT_EQ(b.window.skip, 50'000u);
    EXPECT_EQ(a.soa.size(), 100'000u);
    EXPECT_EQ(b.soa.size(), 100'000u);
}

TEST(Experiment, MatrixShape)
{
    const RunConfig cfg = quickConfig();
    const std::vector<std::string> mechs = {"Base", "TP"};
    const std::vector<std::string> benchs = {"crafty", "swim"};
    const MatrixResult res = freshMatrix(mechs, benchs, cfg);
    ASSERT_EQ(res.ipc.size(), 2u);
    ASSERT_EQ(res.ipc[0].size(), 2u);
    for (const auto &row : res.ipc)
        for (const double ipc : row) {
            EXPECT_GT(ipc, 0.0);
            EXPECT_LT(ipc, 8.0);
        }
}

TEST(Experiment, SpeedupAlgebra)
{
    const RunConfig cfg = quickConfig();
    const MatrixResult res =
        freshMatrix({"Base", "SP"}, {"swim"}, cfg);
    const std::size_t base = res.mechIndex("Base");
    const std::size_t sp = res.mechIndex("SP");
    EXPECT_DOUBLE_EQ(res.speedup(base, 0), 1.0);
    EXPECT_DOUBLE_EQ(res.speedup(sp, 0),
                     res.ipc[sp][0] / res.ipc[base][0]);
    EXPECT_DOUBLE_EQ(res.avgSpeedup(sp), res.speedup(sp, 0));
}

TEST(Experiment, MatrixParallelismInvariant)
{
    // The same matrix computed serially and with 2 workers must be
    // bit-identical, down to the stat snapshots (runs are
    // independent and slots are pre-assigned).
    const RunConfig cfg = quickConfig();
    setenv("MICROLIB_THREADS", "1", 1);
    const MatrixResult serial =
        freshMatrix({"Base", "TP", "SP"}, {"gzip"}, cfg);
    setenv("MICROLIB_THREADS", "2", 1);
    const MatrixResult parallel =
        freshMatrix({"Base", "TP", "SP"}, {"gzip"}, cfg);
    unsetenv("MICROLIB_THREADS");
    for (std::size_t m = 0; m < serial.ipc.size(); ++m) {
        EXPECT_EQ(serial.ipc[m][0], parallel.ipc[m][0]);
        EXPECT_EQ(serial.outputs[m][0].stats,
                  parallel.outputs[m][0].stats);
    }
}

TEST(Experiment, IndexLookups)
{
    const RunConfig cfg = quickConfig();
    const MatrixResult res =
        freshMatrix({"Base", "TP"}, {"crafty", "swim"}, cfg);
    // Engine-produced matrices carry prebuilt indices.
    EXPECT_EQ(res.mechIndex("Base"), 0u);
    EXPECT_EQ(res.mechIndex("TP"), 1u);
    EXPECT_EQ(res.benchIndex("crafty"), 0u);
    EXPECT_EQ(res.benchIndex("swim"), 1u);

    // Hand-assembled matrices still resolve via the fallback scan,
    // and buildIndices() can be called explicitly.
    MatrixResult hand;
    hand.mechanisms = {"Base", "GHB"};
    hand.benchmarks = {"mcf"};
    EXPECT_EQ(hand.mechIndex("GHB"), 1u);
    EXPECT_EQ(hand.benchIndex("mcf"), 0u);
    hand.buildIndices();
    EXPECT_EQ(hand.mechIndex("GHB"), 1u);
    EXPECT_EQ(hand.benchIndex("mcf"), 0u);
}

TEST(Experiment, StatsSnapshotsPopulated)
{
    const RunConfig cfg = quickConfig();
    const MaterializedTrace trace = materializeFor("swim", cfg);
    const RunOutput out = runOne(trace, "GHB", cfg);
    EXPECT_GT(out.stat("l1d.demand_accesses"), 0.0);
    EXPECT_GT(out.stat("l2.demand_accesses"), 0.0);
    EXPECT_TRUE(out.stats.count("mech.GHB.prefetches_issued"));
    EXPECT_FALSE(out.hardware.empty());
}

TEST(Selections, PaperSetsExist)
{
    // Every selection name must be a real benchmark.
    for (const auto &sel :
         {dbcpSelection(), ghbSelection(), highSensitivitySelection(),
          lowSensitivitySelection()}) {
        for (const auto &name : sel)
            EXPECT_NO_FATAL_FAILURE(specProgram(name));
    }
    EXPECT_EQ(dbcpSelection().size(), 5u);
    EXPECT_EQ(ghbSelection().size(), 12u);
    EXPECT_EQ(highSensitivitySelection().size(), 6u);
    EXPECT_EQ(lowSensitivitySelection().size(), 6u);
}

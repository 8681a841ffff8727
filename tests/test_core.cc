/** @file Unit tests for the out-of-order core timing model. */

#include <gtest/gtest.h>

#include "core/baseline_config.hh"
#include "cpu/ooo_core.hh"

using namespace microlib;

namespace
{

BaselineConfig
cfg()
{
    BaselineConfig c = makeBaseline();
    c.core.mispredict_rate = 0.0; // deterministic tests
    return c;
}

TraceSoA
computeTrace(std::size_t n, std::uint8_t dep, OpClass op = OpClass::IntAlu)
{
    Trace t;
    for (std::size_t i = 0; i < n; ++i) {
        TraceRecord r;
        r.op = op;
        r.pc = 0x400000; // single line: one ifetch
        r.dep1 = dep;
        t.push_back(r);
    }
    return TraceSoA(t);
}

} // namespace

TEST(Core, WidthBoundsIpc)
{
    const BaselineConfig c = cfg();
    Hierarchy h(c.hier, nullptr);
    OoOCore core(c.core);
    const CoreResult r = core.run(computeTrace(100000, 0).view(), h);
    EXPECT_LE(r.ipc, 8.0);
    EXPECT_GT(r.ipc, 6.0); // independent IntAlu: near commit width
}

TEST(Core, DependenceChainSerializes)
{
    const BaselineConfig c = cfg();
    Hierarchy h(c.hier, nullptr);
    OoOCore core(c.core);
    const CoreResult r = core.run(computeTrace(100000, 1).view(), h);
    // dep distance 1 with 1-cycle latency: ~1 IPC.
    EXPECT_NEAR(r.ipc, 1.0, 0.1);
}

TEST(Core, DepDistanceScalesIlp)
{
    const BaselineConfig c = cfg();
    Hierarchy h1(c.hier, nullptr), h3(c.hier, nullptr);
    OoOCore core(c.core);
    const double ipc1 = core.run(computeTrace(50000, 1).view(), h1).ipc;
    const double ipc3 = core.run(computeTrace(50000, 3).view(), h3).ipc;
    EXPECT_GT(ipc3, 2.5 * ipc1 * 0.9); // 3 parallel chains
}

TEST(Core, FuContentionLimitsThroughput)
{
    const BaselineConfig c = cfg();
    Hierarchy h(c.hier, nullptr);
    OoOCore core(c.core);
    // FpMult: 2 units with issue interval 2 -> 1 op/cycle cap.
    const CoreResult r =
        core.run(computeTrace(50000, 0, OpClass::FpMult).view(), h);
    EXPECT_LE(r.ipc, 1.1);
}

TEST(Core, LoadLatencyPropagatesToDependents)
{
    const BaselineConfig c = cfg();
    // Loads that miss everywhere followed by dependent compute.
    Trace t;
    for (std::size_t i = 0; i < 20000; ++i) {
        TraceRecord r;
        if (i % 2 == 0) {
            r.op = OpClass::Load;
            r.addr = static_cast<std::uint32_t>(0x10000000 + i * 32);
            r.dep1 = 0;
        } else {
            r.op = OpClass::IntAlu;
            r.dep1 = 1; // consumes the load
        }
        r.pc = 0x400000;
        t.push_back(r);
    }
    Hierarchy h(c.hier, nullptr);
    OoOCore core(c.core);
    const CoreResult r = core.run(TraceSoA(t).view(), h);
    EXPECT_LT(r.ipc, 2.0); // memory-bound
    EXPECT_EQ(r.loads, 10000u);
}

TEST(Core, StoresArePosted)
{
    const BaselineConfig c = cfg();
    Trace t;
    for (std::size_t i = 0; i < 20000; ++i) {
        TraceRecord r;
        r.op = i % 4 == 0 ? OpClass::Store : OpClass::IntAlu;
        r.addr = static_cast<std::uint32_t>(0x10000000 + i * 8);
        r.pc = 0x400000;
        t.push_back(r);
    }
    Hierarchy h(c.hier, nullptr);
    OoOCore core(c.core);
    const CoreResult r = core.run(TraceSoA(t).view(), h);
    // Stores don't stall commit: IPC stays compute-like even though
    // every store line misses.
    EXPECT_GT(r.ipc, 2.0);
    EXPECT_EQ(r.stores, 5000u);
}

TEST(Core, DeterministicAcrossRuns)
{
    const BaselineConfig c = cfg();
    const TraceSoA t = computeTrace(30000, 2);
    Hierarchy h1(c.hier, nullptr), h2(c.hier, nullptr);
    OoOCore core(c.core);
    const double a = core.run(t.view(), h1).ipc;
    const double b = core.run(t.view(), h2).ipc;
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(Core, MispredictsSlowFetch)
{
    BaselineConfig c = cfg();
    Trace t;
    for (std::size_t i = 0; i < 50000; ++i) {
        TraceRecord r;
        r.op = i % 5 == 0 ? OpClass::Branch : OpClass::IntAlu;
        r.pc = 0x400000 + (i % 64) * 4;
        t.push_back(r);
    }
    const TraceSoA soa(t);
    Hierarchy h1(c.hier, nullptr);
    OoOCore perfect(c.core);
    const double ipc_perfect = perfect.run(soa.view(), h1).ipc;

    c.core.mispredict_rate = 0.2;
    Hierarchy h2(c.hier, nullptr);
    OoOCore sloppy(c.core);
    const CoreResult r = sloppy.run(soa.view(), h2);
    EXPECT_GT(r.mispredicts, 0u);
    EXPECT_LT(r.ipc, ipc_perfect);
}

TEST(Core, EmptyTrace)
{
    const BaselineConfig c = cfg();
    Hierarchy h(c.hier, nullptr);
    OoOCore core(c.core);
    const CoreResult r = core.run(TraceView{}, h);
    EXPECT_EQ(r.instructions, 0u);
}

class CoreWidthTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoreWidthTest, IpcNeverExceedsWidth)
{
    BaselineConfig c = cfg();
    c.core.fetch_width = GetParam();
    c.core.commit_width = GetParam();
    Hierarchy h(c.hier, nullptr);
    OoOCore core(c.core);
    const CoreResult r = core.run(computeTrace(50000, 0).view(), h);
    EXPECT_LE(r.ipc, static_cast<double>(GetParam()) + 0.01);
}

INSTANTIATE_TEST_SUITE_P(Widths, CoreWidthTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

/** @file Lockstep kernel tests: V simulations advanced block by
 *  block over one SoA trace pass (LockstepGroup, runLockstep) must be
 *  bit-identical — every CoreResult field and every stat — to each
 *  configuration run alone. No sweep runs in lockstep; the kernel
 *  stays until the repository benchmark stops timing it
 *  (src/cpu/lockstep.hh). */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/baseline_config.hh"
#include "core/experiment.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"
#include "cpu/lockstep.hh"
#include "cpu/ooo_core.hh"
#include "mem/hierarchy.hh"
#include "trace/spec_suite.hh"
#include "trace/window.hh"

using namespace microlib;

namespace
{

/** Three L2-size variants over one trace window. */
SweepSpec
variantSpec()
{
    SweepSpec spec;
    std::string error;
    if (!SweepSpec::parse("sweep-spec v1\n"
                          "bench gzip\n"
                          "mech Base TP\n"
                          "base window.trace_length=100000\n"
                          "base window.interval=100000\n"
                          "axis hier.l2.size 256k 512k 1M\n",
                          spec, &error))
        ADD_FAILURE() << error;
    return spec;
}

/** Bit-identity of two single-run outputs. */
void
expectIdentical(const RunOutput &a, const RunOutput &b)
{
    EXPECT_EQ(a.core.instructions, b.core.instructions);
    EXPECT_EQ(a.core.cycles, b.core.cycles);
    EXPECT_EQ(a.core.ipc, b.core.ipc);
    EXPECT_EQ(a.core.loads, b.core.loads);
    EXPECT_EQ(a.core.stores, b.core.stores);
    EXPECT_EQ(a.core.branches, b.core.branches);
    EXPECT_EQ(a.core.mispredicts, b.core.mispredicts);
    EXPECT_EQ(a.stats, b.stats);
}

} // namespace

TEST(Lockstep, GroupMatchesIndependentRuns)
{
    // The raw cpu-layer API: V cores advanced by one LockstepGroup
    // pass produce the same CoreResult as V independent run() calls.
    const BaselineConfig base = makeBaseline();
    const TraceWindow window{0, 50'000};
    const MaterializedTrace trace =
        materialize(specProgram("crafty"), window);

    std::vector<CacheParams> l2s(3, base.hier.l2);
    l2s[0].size = 256 * 1024;
    l2s[1].size = 512 * 1024;
    l2s[2].size = 1024 * 1024;

    std::vector<std::unique_ptr<Hierarchy>> hiers;
    std::vector<std::unique_ptr<OoOCore>> cores;
    LockstepGroup group;
    for (const CacheParams &l2 : l2s) {
        HierarchyParams hp = base.hier;
        hp.l2 = l2;
        hiers.push_back(
            std::make_unique<Hierarchy>(hp, trace.image));
        cores.push_back(std::make_unique<OoOCore>(base.core));
        group.add(*cores.back(), *hiers.back());
    }
    ASSERT_EQ(group.size(), 3u);
    group.run(trace.view());

    for (std::size_t v = 0; v < l2s.size(); ++v) {
        HierarchyParams hp = base.hier;
        hp.l2 = l2s[v];
        Hierarchy hier(hp, trace.image);
        OoOCore core(base.core);
        const CoreResult solo = core.run(trace.view(), hier);
        const CoreResult &locked = group.result(v);
        EXPECT_EQ(locked.instructions, solo.instructions);
        EXPECT_EQ(locked.cycles, solo.cycles);
        EXPECT_EQ(locked.ipc, solo.ipc);
        EXPECT_EQ(locked.loads, solo.loads);
        EXPECT_EQ(locked.stores, solo.stores);
        EXPECT_EQ(locked.branches, solo.branches);
        EXPECT_EQ(locked.mispredicts, solo.mispredicts);
    }
}

TEST(Lockstep, RunLockstepMatchesRunOne)
{
    // The experiment-layer fan-out: runLockstep over mixed configs
    // is bit-identical (stats included) to per-config runOne calls.
    const TaskPlan plan(variantSpec());
    const MaterializedTrace trace =
        materializeFor("gzip", plan.config(0));
    for (const char *mech : {"Base", "TP"}) {
        std::vector<const RunConfig *> cfgs;
        for (std::size_t v = 0; v < plan.variantCount(); ++v)
            cfgs.push_back(&plan.config(v));
        const std::vector<RunOutput> locked =
            runLockstep(trace, mech, cfgs);
        ASSERT_EQ(locked.size(), cfgs.size());
        for (std::size_t v = 0; v < cfgs.size(); ++v)
            expectIdentical(locked[v],
                            runOne(trace, mech, *cfgs[v]));
    }
}

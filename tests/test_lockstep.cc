/** @file Lockstep multi-variant execution tests: the lockstep path
 *  (one SoA trace pass advancing V variant simulations block by
 *  block) must be bit-identical — every CoreResult field and every
 *  stat — to each task simulated alone by runOne(), for any thread
 *  count, across a ProcessShardBackend merge, and when an
 *  interrupted sweep resumes mid-group (only the missing variants
 *  re-execute). Also covers TaskPlan::lockstepGroups' grouping and
 *  ordering contract and the raw LockstepGroup API against
 *  OoOCore::run(). */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/baseline_config.hh"
#include "core/process_shard_backend.hh"
#include "core/registry.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
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

/** The reference lockstep spec: three benchmarks x two mechanisms x
 *  three L2-size variants, all sharing one trace slot per benchmark,
 *  so every (benchmark, mechanism) cell forms a 3-member group. */
const char *lockstep_text = R"(sweep-spec v1
bench swim gzip mcf
mech Base TP
base window.trace_length=100000
base window.interval=100000
axis hier.l2.size 256k 512k 1M
)";

SweepSpec
lockstepSpec()
{
    SweepSpec spec;
    std::string error;
    if (!SweepSpec::parse(lockstep_text, spec, &error))
        ADD_FAILURE() << error;
    return spec;
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "microlib_lockstep_" + name;
}

/** Bit-identity across every variant matrix of two sweep results:
 *  the full CoreResult, not just IPC, plus the stat snapshot. */
void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.variants, b.variants);
    ASSERT_EQ(a.matrices.size(), b.matrices.size());
    for (std::size_t v = 0; v < a.matrices.size(); ++v) {
        const MatrixResult &ma = a.matrices[v];
        const MatrixResult &mb = b.matrices[v];
        ASSERT_EQ(ma.mechanisms, mb.mechanisms);
        ASSERT_EQ(ma.benchmarks, mb.benchmarks);
        for (std::size_t m = 0; m < ma.mechanisms.size(); ++m) {
            for (std::size_t bi = 0; bi < ma.benchmarks.size();
                 ++bi) {
                const RunOutput &oa = ma.outputs[m][bi];
                const RunOutput &ob = mb.outputs[m][bi];
                const std::string where = a.variants[v] + " " +
                                          ma.mechanisms[m] + "/" +
                                          ma.benchmarks[bi];
                EXPECT_EQ(oa.core.instructions, ob.core.instructions)
                    << where;
                EXPECT_EQ(oa.core.cycles, ob.core.cycles) << where;
                EXPECT_EQ(oa.core.ipc, ob.core.ipc) << where;
                EXPECT_EQ(oa.core.loads, ob.core.loads) << where;
                EXPECT_EQ(oa.core.stores, ob.core.stores) << where;
                EXPECT_EQ(oa.core.branches, ob.core.branches)
                    << where;
                EXPECT_EQ(oa.core.mispredicts, ob.core.mispredicts)
                    << where;
                EXPECT_EQ(oa.stats, ob.stats) << where;
            }
        }
    }
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

/** Run the reference spec on a fresh engine. */
SweepResult
runSweep(unsigned threads, ResultStore *store = nullptr,
         ExecutionBackend *backend = nullptr)
{
    EngineOptions opts;
    opts.threads = threads;
    opts.store = store;
    opts.backend = backend;
    ExperimentEngine engine(opts);
    return engine.run(lockstepSpec());
}

/** The reference spec with every task simulated alone: runOne()
 *  over a materializeFor() trace, one trace per slot. */
const SweepResult &
oracleSweep()
{
    static const SweepResult res = [] {
        const TaskPlan plan(lockstepSpec());
        SweepResult out = plan.emptyResult();
        std::vector<std::unique_ptr<MaterializedTrace>> traces(
            plan.traceSlotCount());
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const PlanTask &t = plan.task(i);
            const RunConfig &cfg = plan.config(t.v);
            auto &trace = traces[plan.traceSlot(i)];
            if (!trace)
                trace = std::make_unique<MaterializedTrace>(
                    materializeFor(plan.benchmarks()[t.b], cfg));
            MatrixResult &m = out.matrix(t.v);
            m.outputs[t.m][t.b] =
                runOne(*trace, plan.mechanisms()[t.m], cfg);
            m.ipc[t.m][t.b] = m.outputs[t.m][t.b].core.ipc;
        }
        return out;
    }();
    return res;
}

/** Copy the first @p n record lines of @p src to @p dst — the store
 *  an interrupted sweep leaves behind. */
std::size_t
truncateStoreFile(const std::string &src, const std::string &dst,
                  std::size_t n)
{
    std::ifstream in(src);
    std::ofstream out(dst, std::ios::trunc);
    std::string line;
    std::size_t copied = 0;
    while (copied < n && std::getline(in, line)) {
        out << line << '\n';
        ++copied;
    }
    return copied;
}

} // namespace

TEST(Lockstep, GroupsPendingTasksByTraceSlotAndMechanism)
{
    const TaskPlan plan(lockstepSpec());
    ASSERT_EQ(plan.size(), 18u); // 3 bench x 3 variants x 2 mechs
    ASSERT_EQ(plan.traceSlotCount(), 3u);

    // Nothing done, whole plan: one group per (benchmark, mechanism)
    // cell, members in variant order, groups ordered by their first
    // member's plan index, union exactly the pending set.
    std::vector<char> done(plan.size(), 0);
    const auto groups = plan.lockstepGroups(done, ShardSpec{});
    ASSERT_EQ(groups.size(), 6u);
    std::vector<char> seen(plan.size(), 0);
    std::size_t prev_first = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        ASSERT_EQ(groups[g].size(), 3u);
        if (g > 0)
            EXPECT_GT(groups[g].front(), prev_first);
        prev_first = groups[g].front();
        const PlanTask &first = plan.task(groups[g].front());
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
            const std::size_t flat = groups[g][i];
            EXPECT_FALSE(seen[flat]);
            seen[flat] = 1;
            const PlanTask &t = plan.task(flat);
            EXPECT_EQ(t.m, first.m);
            EXPECT_EQ(plan.traceSlot(flat),
                      plan.traceSlot(groups[g].front()));
            EXPECT_EQ(t.v, i); // members in variant order
        }
    }
    for (std::size_t i = 0; i < plan.size(); ++i)
        EXPECT_TRUE(seen[i]) << "task " << i << " missing";

    // Resumed tasks vanish from their group; a fully resumed group
    // vanishes entirely.
    std::vector<char> part(plan.size(), 0);
    part[groups[0][1]] = 1; // middle variant of the first group
    for (std::size_t flat : groups[1])
        part[flat] = 1; // all of the second group
    const auto partial = plan.lockstepGroups(part, ShardSpec{});
    ASSERT_EQ(partial.size(), 5u);
    EXPECT_EQ(partial[0],
              (std::vector<std::size_t>{groups[0][0], groups[0][2]}));

    // Sharding: each shard's groups cover exactly its pending tasks.
    for (std::size_t s = 0; s < 2; ++s) {
        const ShardSpec shard{s, 2};
        std::vector<std::size_t> covered;
        for (const auto &g : plan.lockstepGroups(done, shard))
            covered.insert(covered.end(), g.begin(), g.end());
        EXPECT_EQ(covered, plan.pendingTasks(done, shard));
    }
}

TEST(Lockstep, WindowAxisSplitsGroups)
{
    // A window-moving axis gives each variant its own trace slot, so
    // no two variants may share a lockstep group.
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse(
        "sweep-spec v1\nbench swim\nmech Base\n"
        "axis window.trace_length 100k 200k\n", spec, &error))
        << error;
    const TaskPlan plan(spec);
    std::vector<char> done(plan.size(), 0);
    const auto groups = plan.lockstepGroups(done, ShardSpec{});
    ASSERT_EQ(groups.size(), plan.size());
    for (const auto &g : groups)
        EXPECT_EQ(g.size(), 1u);
}

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
    const SweepSpec spec = lockstepSpec();
    const TaskPlan plan(spec);
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

TEST(Lockstep, SweepBitIdenticalToOracleAcrossThreadCounts)
{
    for (const unsigned threads : {1u, 4u, 8u})
        expectIdentical(oracleSweep(), runSweep(threads));
}

TEST(Lockstep, ProcessShardMergeBitIdentical)
{
    const std::string store_path = tmpPath("shards.store");
    std::remove(store_path.c_str());
    for (std::size_t i = 0; i < 4; ++i)
        std::remove(ProcessShardBackend::shardStorePath(
                        store_path, i, 2)
                        .c_str());
    ResultStore store(store_path);
    ProcessShardOptions popts;
    popts.shards = 2;
    ProcessShardBackend backend(popts);
    const SweepResult merged = runSweep(1, &store, &backend);
    expectIdentical(oracleSweep(), merged);
    std::remove(store_path.c_str());
}

TEST(Lockstep, InterruptedSweepResumesOnlyMissingGroupMembers)
{
    const TaskPlan plan(lockstepSpec());
    const std::size_t total = plan.size();

    // Complete the sweep once (1 thread: group order and store
    // record order are deterministic)...
    const std::string full_path = tmpPath("resume_full.store");
    std::remove(full_path.c_str());
    SweepResult reference;
    {
        ResultStore full(full_path);
        reference = runSweep(1, &full);
        ASSERT_EQ(full.size(), total);
    }

    // ..."kill" it after 4 records. With 3-member groups that is one
    // whole group plus one member of the next: the resumed sweep
    // faces a partially completed lockstep group.
    const std::string half_path = tmpPath("resume_half.store");
    const std::size_t kept =
        truncateStoreFile(full_path, half_path, 4);
    ASSERT_EQ(kept, 4u);

    ResultStore store(half_path);
    EngineOptions opts;
    opts.threads = 1;
    opts.store = &store;
    ExperimentEngine engine(opts);
    const SweepResult resumed = engine.run(lockstepSpec());
    // Only the missing variants re-execute — the partially done
    // group runs as a 2-member group, not a re-run 3-member one.
    EXPECT_EQ(engine.lastRun().resumed, kept);
    EXPECT_EQ(engine.lastRun().executed, total - kept);
    EXPECT_EQ(store.size(), total);
    expectIdentical(reference, resumed);

    std::remove(full_path.c_str());
    std::remove(half_path.c_str());
}

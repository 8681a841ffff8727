/** @file Sharded execution: shard partitions of the TaskPlan are
 *  disjoint and exhaustive, shard stores merged record by record
 *  reproduce the single-process MatrixResult bit-identically (both
 *  via in-process --shard style runs and via the forked
 *  ProcessShardBackend), and a killed-and-resumed shard re-executes
 *  only its missing tasks. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/process_shard_backend.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/task_plan.hh"

#include "spec_helpers.hh"

using namespace microlib;

namespace
{

const std::vector<std::string> mechs = {"Base", "TP", "SP", "GHB"};
const std::vector<std::string> benchs = {"swim", "gzip", "crafty"};

SweepSpec
quickSpec()
{
    return specOf(mechs, benchs,
                  {{"window.trace_length", "100000"},
                   {"window.interval", "100000"}});
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "microlib_shard_" + name;
}

/** Bit-identity over everything the store persists. */
void
expectIdentical(const MatrixResult &a, const MatrixResult &b)
{
    ASSERT_EQ(a.mechanisms, b.mechanisms);
    ASSERT_EQ(a.benchmarks, b.benchmarks);
    for (std::size_t m = 0; m < a.mechanisms.size(); ++m) {
        for (std::size_t bi = 0; bi < a.benchmarks.size(); ++bi) {
            const RunOutput &ra = a.outputs[m][bi];
            const RunOutput &rb = b.outputs[m][bi];
            EXPECT_EQ(a.ipc[m][bi], b.ipc[m][bi])
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
            EXPECT_EQ(ra.core.instructions, rb.core.instructions);
            EXPECT_EQ(ra.core.cycles, rb.core.cycles);
            EXPECT_EQ(ra.core.ipc, rb.core.ipc);
            EXPECT_EQ(ra.stats, rb.stats)
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
        }
    }
}

/** Copy the first @p n record lines of @p src to @p dst — the store
 *  a shard killed after n completed runs would have left. */
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

MatrixResult
referenceRun(const SweepSpec &spec)
{
    EngineOptions opts;
    opts.threads = 4;
    ExperimentEngine engine(opts);
    return engine.run(spec).matrix(0);
}

} // namespace

TEST(Shard, SpecParsesAndPrints)
{
    ShardSpec s;
    EXPECT_TRUE(ShardSpec::parse("0/2", s));
    EXPECT_EQ(s.index, 0u);
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.str(), "0/2");
    EXPECT_TRUE(ShardSpec::parse("3/4", s));
    EXPECT_FALSE(ShardSpec::parse("4/4", s));
    EXPECT_FALSE(ShardSpec::parse("1", s));
    EXPECT_FALSE(ShardSpec::parse("a/2", s));
    EXPECT_FALSE(ShardSpec::parse("1/0", s));
    EXPECT_FALSE(ShardSpec::parse("1/2x", s));
    EXPECT_TRUE(ShardSpec{}.whole());
}

TEST(Shard, PartitionsAreDisjointAndExhaustive)
{
    const TaskPlan plan(quickSpec());
    ASSERT_EQ(plan.size(), mechs.size() * benchs.size());

    for (const std::size_t n : {1u, 2u, 4u}) {
        std::set<std::size_t> seen;
        for (std::size_t i = 0; i < n; ++i) {
            const ShardSpec shard{i, n};
            for (const std::size_t t : plan.shardTasks(shard)) {
                // Disjoint: no task appears in two shards.
                EXPECT_TRUE(seen.insert(t).second)
                    << "task " << t << " in two shards of " << n;
                EXPECT_TRUE(TaskPlan::inShard(t, shard));
            }
        }
        // Exhaustive: every task is in exactly one shard.
        EXPECT_EQ(seen.size(), plan.size()) << n << " shards";
    }
}

TEST(Shard, PlanEnumerationIsDeterministic)
{
    const TaskPlan a(quickSpec());
    const TaskPlan b(quickSpec());
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.configHash(), b.configHash());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a.task(i).index, i);
        EXPECT_EQ(a.task(i).m, b.task(i).m);
        EXPECT_EQ(a.task(i).b, b.task(i).b);
        EXPECT_EQ(a.resultKey(i).str(), b.resultKey(i).str());
        // The slot assignment is the canonical benchmark-slowest
        // flattening — the contract shards and stores rely on.
        EXPECT_EQ(a.task(i).index,
                  a.task(i).b * mechs.size() + a.task(i).m);
    }
}

TEST(Shard, MergedShardStoresMatchSingleProcess)
{
    const SweepSpec spec = quickSpec();
    const MatrixResult reference = referenceRun(spec);
    const std::size_t total = mechs.size() * benchs.size();
    const TaskPlan plan(spec);

    // Run each shard the way a separate host would: its own engine,
    // its own store file, in-process thread-pool backend.
    const std::size_t nshards = 2;
    std::vector<std::string> shard_paths;
    for (std::size_t i = 0; i < nshards; ++i) {
        const std::string path =
            tmpPath("merge_s" + std::to_string(i) + ".store");
        std::remove(path.c_str());
        shard_paths.push_back(path);

        ResultStore store(path);
        EngineOptions opts;
        opts.threads = 2;
        opts.store = &store;
        opts.shard = ShardSpec{i, nshards};
        ExperimentEngine engine(opts);
        engine.run(spec);

        const RunCounters counts = engine.lastRun();
        const std::size_t mine =
            plan.shardTasks(ShardSpec{i, nshards}).size();
        EXPECT_EQ(counts.executed, mine);
        EXPECT_EQ(counts.resumed, 0u);
        EXPECT_EQ(counts.skipped, total - mine);
        EXPECT_EQ(store.size(), mine);
    }

    // Merge the shard stores, then resume the whole plan from the
    // merged store: nothing executes and the matrix is bit-identical
    // to the single-process run.
    const std::string merged_path = tmpPath("merge_all.store");
    std::remove(merged_path.c_str());
    ResultStore merged(merged_path);
    std::size_t merged_records = 0;
    for (const auto &path : shard_paths)
        merged_records += merged.merge(path);
    EXPECT_EQ(merged_records, total);
    EXPECT_EQ(merged.size(), total);

    EngineOptions opts;
    opts.threads = 2;
    opts.store = &merged;
    ExperimentEngine engine(opts);
    const MatrixResult combined = engine.run(spec).matrix(0);
    EXPECT_EQ(engine.lastRun().executed, 0u);
    EXPECT_EQ(engine.lastRun().resumed, total);
    EXPECT_EQ(engine.lastRun().skipped, 0u);
    expectIdentical(reference, combined);

    for (const auto &path : shard_paths)
        std::remove(path.c_str());
    std::remove(merged_path.c_str());
}

TEST(Shard, ProcessShardBackendMatchesThreadPool)
{
    const SweepSpec spec = quickSpec();
    const MatrixResult reference = referenceRun(spec);
    const std::size_t total = mechs.size() * benchs.size();

    const std::string path = tmpPath("process.store");
    std::remove(path.c_str());
    ResultStore store(path);

    ProcessShardOptions popts;
    popts.shards = 2;
    ProcessShardBackend backend(popts);

    EngineOptions opts;
    opts.threads = 1;
    opts.store = &store;
    opts.backend = &backend;
    ExperimentEngine engine(opts);

    const MatrixResult forked = engine.run(spec).matrix(0);
    EXPECT_EQ(engine.lastRun().executed, total);
    EXPECT_EQ(engine.lastRun().resumed, 0u);
    EXPECT_EQ(engine.lastRun().skipped, 0u);
    EXPECT_EQ(store.size(), total);
    expectIdentical(reference, forked);

    // A second run over the merged store resumes everything: the
    // backend forks no workers at all.
    const MatrixResult again = engine.run(spec).matrix(0);
    EXPECT_EQ(engine.lastRun().executed, 0u);
    EXPECT_EQ(engine.lastRun().resumed, total);
    expectIdentical(reference, again);

    std::remove(path.c_str());
}

TEST(Shard, KilledShardResumesOnlyMissingTasks)
{
    const SweepSpec spec = quickSpec();
    const TaskPlan plan(spec);
    const ShardSpec shard{0, 2};
    const std::size_t mine = plan.shardTasks(shard).size();
    const std::size_t total = plan.size();

    // Complete shard 0/2 once to obtain its full store...
    const std::string full_path = tmpPath("kill_full.store");
    std::remove(full_path.c_str());
    {
        ResultStore store(full_path);
        EngineOptions opts;
        opts.threads = 2;
        opts.store = &store;
        opts.shard = shard;
        ExperimentEngine engine(opts);
        engine.run(spec);
        EXPECT_EQ(engine.lastRun().executed, mine);
        EXPECT_EQ(store.size(), mine);
    }

    // ..."kill" it halfway: keep the first half of its records —
    // exactly the file an interrupted shard leaves, since records
    // are appended and flushed as each run completes.
    const std::string half_path = tmpPath("kill_half.store");
    const std::size_t kept =
        truncateStoreFile(full_path, half_path, mine / 2);
    ASSERT_EQ(kept, mine / 2);

    // Restart the shard: exactly the missing tasks execute, the
    // out-of-shard remainder stays skipped.
    ResultStore store(half_path);
    EngineOptions opts;
    opts.threads = 2;
    opts.store = &store;
    opts.shard = shard;
    ExperimentEngine engine(opts);
    engine.run(spec);
    const RunCounters counts = engine.lastRun();
    EXPECT_EQ(counts.resumed, kept);
    EXPECT_EQ(counts.executed, mine - kept);
    EXPECT_EQ(counts.skipped, total - mine);
    // The shard store is whole again.
    EXPECT_EQ(store.size(), mine);

    std::remove(full_path.c_str());
    std::remove(half_path.c_str());
}

TEST(Shard, ProcessBackendResumesKilledWorkerStore)
{
    const SweepSpec spec = quickSpec();
    const TaskPlan plan(spec);
    const std::size_t total = plan.size();
    const std::size_t nshards = 2;

    const std::string path = tmpPath("procresume.store");
    std::remove(path.c_str());

    // Pre-seed shard 0's worker store with half of its records, as
    // a killed worker would have left it (kept because the previous
    // parent run failed before merging).
    const std::string seed_path = tmpPath("procresume_seed.store");
    std::remove(seed_path.c_str());
    std::size_t shard0_tasks = 0;
    {
        ResultStore seed(seed_path);
        EngineOptions opts;
        opts.threads = 2;
        opts.store = &seed;
        opts.shard = ShardSpec{0, nshards};
        ExperimentEngine engine(opts);
        engine.run(spec);
        shard0_tasks = engine.lastRun().executed;
    }
    const std::string worker_path =
        ProcessShardBackend::shardStorePath(path, 0, nshards);
    std::remove(worker_path.c_str());
    truncateStoreFile(seed_path, worker_path, shard0_tasks / 2);

    ResultStore store(path);
    ProcessShardOptions popts;
    popts.shards = nshards;
    ProcessShardBackend backend(popts);
    EngineOptions opts;
    opts.threads = 1;
    opts.store = &store;
    opts.backend = &backend;
    ExperimentEngine engine(opts);
    engine.run(spec);

    // Everything landed, and the accounting is truthful: the
    // pre-seeded records were resumed inside the restarted worker,
    // only the missing tasks were simulated.
    EXPECT_EQ(store.size(), total);
    EXPECT_EQ(engine.lastRun().resumed, shard0_tasks / 2);
    EXPECT_EQ(engine.lastRun().executed, total - shard0_tasks / 2);
    EXPECT_EQ(engine.lastRun().skipped, 0u);

    std::remove(seed_path.c_str());
    std::remove(path.c_str());
}

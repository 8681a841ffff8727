/** @file Resume semantics: a sweep interrupted after N of M runs
 *  re-executes exactly M-N tasks on restart, and the merged report is
 *  bit-identical to an uninterrupted run across worker counts. The
 *  interruption is simulated by pre-seeding a store with the first
 *  half of a finished sweep's records — exactly the file a killed
 *  process leaves behind, since records are appended and flushed as
 *  each run completes. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/task_plan.hh"

#include "spec_helpers.hh"

using namespace microlib;

namespace
{

const std::vector<std::string> mechs = {"Base", "TP", "SP", "GHB"};
const std::vector<std::string> benchs = {"swim", "gzip", "crafty"};

const Settings quick = {{"window.trace_length", "100000"},
                        {"window.interval", "100000"}};

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "microlib_resume_" + name;
}

MatrixResult
runWithStore(unsigned threads, const Settings &settings,
             ResultStore *store, RunCounters &counts)
{
    EngineOptions opts;
    opts.threads = threads;
    opts.store = store;
    ExperimentEngine engine(opts);
    MatrixResult res = engine.run(specOf(mechs, benchs, settings)).matrix(0);
    counts = engine.lastRun();
    return res;
}

/** Bit-identity over everything the store persists: the IPC matrix,
 *  all CoreResult fields, and every stat snapshot value. */
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
            EXPECT_EQ(ra.core.loads, rb.core.loads);
            EXPECT_EQ(ra.core.stores, rb.core.stores);
            EXPECT_EQ(ra.core.branches, rb.core.branches);
            EXPECT_EQ(ra.core.mispredicts, rb.core.mispredicts);
            EXPECT_EQ(ra.stats, rb.stats)
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
            EXPECT_EQ(ra.benchmark, a.benchmarks[bi]);
            EXPECT_EQ(ra.mechanism, a.mechanisms[m]);
        }
    }
}

/** Copy the first @p n record lines of @p src to @p dst — the store
 *  a sweep killed after n completed runs would have left. */
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

TEST(Resume, InterruptedSweepExecutesOnlyMissingRuns)
{
    const std::size_t total = mechs.size() * benchs.size();
    const std::string full_path = tmpPath("full.store");
    const std::string half_path = tmpPath("half.store");
    std::remove(full_path.c_str());

    // Uninterrupted sweep: every task executes, every record lands.
    RunCounters counts;
    MatrixResult uninterrupted;
    {
        ResultStore store(full_path);
        uninterrupted = runWithStore(4, quick, &store, counts);
        EXPECT_EQ(counts.executed, total);
        EXPECT_EQ(counts.resumed, 0u);
        EXPECT_EQ(store.size(), total);
    }

    // "Kill" it halfway: keep the first N of M records.
    const std::size_t kept =
        truncateStoreFile(full_path, half_path, total / 2);
    ASSERT_EQ(kept, total / 2);

    // Restart across worker counts: exactly M-N tasks execute, and
    // the merged matrix is bit-identical to the uninterrupted run.
    for (const unsigned threads : {1u, 4u, 8u}) {
        const std::string path =
            tmpPath("resume_t" + std::to_string(threads) + ".store");
        std::remove(path.c_str());
        truncateStoreFile(full_path, path, total / 2);

        ResultStore store(path);
        ASSERT_EQ(store.size(), total / 2);
        const MatrixResult resumed =
            runWithStore(threads, quick, &store, counts);
        EXPECT_EQ(counts.resumed, total / 2) << threads << " workers";
        EXPECT_EQ(counts.executed, total - total / 2)
            << threads << " workers";
        expectIdentical(uninterrupted, resumed);
        // The store is whole again: a further restart runs nothing.
        EXPECT_EQ(store.size(), total);
        std::remove(path.c_str());
    }

    std::remove(full_path.c_str());
    std::remove(half_path.c_str());
}

TEST(Resume, CompletedSweepRerunsNothing)
{
    const std::size_t total = mechs.size() * benchs.size();
    const std::string path = tmpPath("complete.store");
    std::remove(path.c_str());

    ResultStore store(path);
    RunCounters counts;
    const MatrixResult first = runWithStore(2, quick, &store, counts);
    EXPECT_EQ(counts.executed, total);

    const MatrixResult second = runWithStore(2, quick, &store, counts);
    EXPECT_EQ(counts.executed, 0u);
    EXPECT_EQ(counts.resumed, total);
    expectIdentical(first, second);
    std::remove(path.c_str());
}

TEST(Resume, StaleRecordsAreIgnoredNeverReused)
{
    const std::size_t total = mechs.size() * benchs.size();
    const std::string path = tmpPath("stale.store");
    std::remove(path.c_str());

    // Fill the store under one configuration...
    RunCounters counts;
    ResultStore store(path);
    runWithStore(2, quick, &store, counts);
    EXPECT_EQ(store.size(), total);

    // ...then change the system: every record is stale, every task
    // re-executes, and the store now holds both configurations.
    Settings bigger_l1 = quick;
    bigger_l1.push_back({"hier.l1d.size", "64k"}); // Table 1: 32k
    runWithStore(2, bigger_l1, &store, counts);
    EXPECT_EQ(counts.resumed, 0u);
    EXPECT_EQ(counts.executed, total);
    EXPECT_EQ(store.size(), 2 * total);
    std::remove(path.c_str());
}

TEST(Resume, MemoryStoreResumesWithinProcess)
{
    ResultStore store; // no backing file
    RunCounters counts;
    const MatrixResult first = runWithStore(2, quick, &store, counts);
    EXPECT_EQ(counts.executed, mechs.size() * benchs.size());
    const MatrixResult again = runWithStore(2, quick, &store, counts);
    EXPECT_EQ(counts.executed, 0u);
    expectIdentical(first, again);
}

TEST(Resume, SharedKeysWithinOnePlanExecuteOnce)
{
    // Base builds no mechanism, so a mech.* axis leaves its key
    // unchanged: both variants hold the same Base key per benchmark.
    // Only the first executes; the later slot is a bit-identical copy.
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse("sweep-spec v1\n"
                                 "bench swim gzip\n"
                                 "mech Base GHB\n"
                                 "base window.trace_length=100000\n"
                                 "base window.interval=100000\n"
                                 "axis mech.second_guess 0 1\n",
                                 spec, &error))
        << error;
    const TaskPlan plan(spec);
    ASSERT_EQ(plan.size(), 8u);
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        const std::string key = plan.resultKey(i).str();
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
            keys.push_back(key);
    }
    ASSERT_EQ(keys.size(), 6u); // GHB x 2 variants x 2 + Base x 2

    ResultStore store;
    EngineOptions opts;
    opts.threads = 2;
    opts.store = &store;
    ExperimentEngine engine(opts);
    const SweepResult res = engine.runPlan(plan);
    const RunCounters &counts = engine.lastRun();
    EXPECT_EQ(counts.executed, keys.size());
    EXPECT_EQ(counts.resumed, plan.size() - keys.size());
    EXPECT_EQ(counts.total(), plan.size());

    ASSERT_EQ(res.matrices.size(), 2u);
    const MatrixResult &v0 = res.matrices[0];
    const MatrixResult &v1 = res.matrices[1];
    const std::size_t base = v0.mechIndex("Base");
    for (std::size_t b = 0; b < v0.benchmarks.size(); ++b) {
        const RunOutput &want = v0.outputs[base][b];
        const RunOutput &got = v1.outputs[base][b];
        EXPECT_GT(want.core.instructions, 0u);
        EXPECT_EQ(v1.ipc[base][b], v0.ipc[base][b]);
        EXPECT_EQ(got.core.instructions, want.core.instructions);
        EXPECT_EQ(got.core.cycles, want.core.cycles);
        EXPECT_EQ(got.core.ipc, want.core.ipc);
        EXPECT_EQ(got.core.loads, want.core.loads);
        EXPECT_EQ(got.core.stores, want.core.stores);
        EXPECT_EQ(got.core.branches, want.core.branches);
        EXPECT_EQ(got.core.mispredicts, want.core.mispredicts);
        EXPECT_EQ(got.stats, want.stats);
        EXPECT_EQ(got.benchmark, want.benchmark);
        EXPECT_EQ(got.mechanism, "Base");
    }
}

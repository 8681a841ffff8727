/** @file SweepSpec tests: parse/serialize round-trips, cross-host
 *  canonical-hash stability, useful rejection of bad specs, variant
 *  expansion/trace-slot sharing, and the determinism contract of a
 *  2-variant sweep sharded over separate stores (merged byte-
 *  identical to single-process; an interrupted sweep resumes exactly
 *  the missing (benchmark, mechanism, variant) tasks). */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"

using namespace microlib;

namespace
{

/** The reference 2-variant spec used throughout: two benchmarks x
 *  two mechanisms, L2 size swept over two points. */
const char *two_variant_text = R"(sweep-spec v1
bench swim gzip
mech Base TP
base window.trace_length=100000
base window.interval=100000
axis hier.l2.size 256k 1M
)";

SweepSpec
twoVariantSpec()
{
    SweepSpec spec;
    std::string error;
    if (!SweepSpec::parse(two_variant_text, spec, &error))
        ADD_FAILURE() << error;
    return spec;
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "microlib_sweep_spec_" + name;
}

/** Bit-identity across every variant matrix of two sweep results. */
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
            for (std::size_t bi = 0; bi < ma.benchmarks.size(); ++bi) {
                EXPECT_EQ(ma.ipc[m][bi], mb.ipc[m][bi])
                    << a.variants[v] << " " << ma.mechanisms[m] << "/"
                    << ma.benchmarks[bi];
                EXPECT_EQ(ma.outputs[m][bi].core.cycles,
                          mb.outputs[m][bi].core.cycles);
                EXPECT_EQ(ma.outputs[m][bi].stats,
                          mb.outputs[m][bi].stats);
            }
        }
    }
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

TEST(SweepSpec, ParseSerializeRoundTrip)
{
    // Sloppy input: comments, blank lines, ragged whitespace, split
    // bench lines — must parse, and canonicalize to the fixed form.
    const std::string sloppy = "# an experiment\n"
                               "sweep-spec v1\n"
                               "\n"
                               "bench   swim\n"
                               "bench gzip   # more workloads\n"
                               "mech Base TP\n"
                               "base  window.trace_length=100000\n"
                               "base window.interval=100000\n"
                               "axis hier.l2.size   256k  1M\n";
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse(sloppy, spec, &error)) << error;
    EXPECT_EQ(spec.canonicalText(), two_variant_text);

    // Round trip: parsing the canonical form reproduces it exactly,
    // and the hash agrees.
    SweepSpec again;
    ASSERT_TRUE(
        SweepSpec::parse(spec.canonicalText(), again, &error))
        << error;
    EXPECT_EQ(again.canonicalText(), spec.canonicalText());
    EXPECT_EQ(again.hash(), spec.hash());

    EXPECT_EQ(spec.benchmarks(),
              (std::vector<std::string>{"swim", "gzip"}));
    EXPECT_EQ(spec.mechanisms(),
              (std::vector<std::string>{"Base", "TP"}));
    ASSERT_EQ(spec.axes().size(), 1u);
    EXPECT_EQ(spec.axes()[0].key, "hier.l2.size");
}

TEST(SweepSpec, CanonicalHashIsStable)
{
    // The pinned hash of the reference spec. This value must be
    // identical on every host and every build — it is the identity
    // shards use to agree they are running the same sweep. If this
    // test fails, the canonical format changed: that is a breaking
    // change to every .sweep file in the wild, not a test to update
    // lightly.
    EXPECT_EQ(twoVariantSpec().hash(), 0x25fe8c1c05818c0aull);
}

TEST(SweepSpec, UnknownAxisKeyRejectedUsefully)
{
    SweepSpec spec;
    std::string error;
    const std::string bad = "sweep-spec v1\n"
                            "bench swim\n"
                            "mech Base\n"
                            "axis hier.l3.size 1M 2M\n";
    ASSERT_FALSE(SweepSpec::parse(bad, spec, &error));
    // The error names the line, the offending key, and the known
    // keys — enough to fix the file without reading source code.
    EXPECT_NE(error.find("line 4"), std::string::npos) << error;
    EXPECT_NE(error.find("hier.l3.size"), std::string::npos) << error;
    EXPECT_NE(error.find("known keys"), std::string::npos) << error;
    EXPECT_NE(error.find("hier.l2.size"), std::string::npos) << error;
}

TEST(SweepSpec, RejectsBadValuesBenchmarksAndStructure)
{
    SweepSpec spec;
    std::string error;

    // A value the parameter rejects, at parse time.
    ASSERT_FALSE(SweepSpec::parse("sweep-spec v1\nbench swim\n"
                                  "mech Base\naxis hier.l2.size big\n",
                                  spec, &error));
    EXPECT_NE(error.find("hier.l2.size"), std::string::npos) << error;

    // Unknown benchmark and mechanism names.
    ASSERT_FALSE(SweepSpec::parse(
        "sweep-spec v1\nbench quake3\nmech Base\n", spec, &error));
    EXPECT_NE(error.find("quake3"), std::string::npos) << error;
    ASSERT_FALSE(SweepSpec::parse(
        "sweep-spec v1\nbench swim\nmech Turbo\n", spec, &error));
    EXPECT_NE(error.find("Turbo"), std::string::npos) << error;

    // Missing header / sections; duplicate axis.
    ASSERT_FALSE(SweepSpec::parse("bench swim\n", spec, &error));
    ASSERT_FALSE(
        SweepSpec::parse("sweep-spec v1\nmech Base\n", spec, &error));
    ASSERT_FALSE(SweepSpec::parse("sweep-spec v1\nbench swim\n"
                                  "mech Base\naxis core.rob 64 128\n"
                                  "axis core.rob 32 256\n",
                                  spec, &error));
    EXPECT_NE(error.find("duplicate axis"), std::string::npos)
        << error;
}

TEST(SweepSpec, VariantExpansionFirstAxisSlowest)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse("sweep-spec v1\nbench swim\n"
                                 "mech Base\n"
                                 "axis core.rob 64 128\n"
                                 "axis hier.l2.size 256k 512k 1M\n",
                                 spec, &error))
        << error;
    ASSERT_EQ(spec.variantCount(), 6u);
    const std::vector<ConfigVariant> vars = spec.variants();
    EXPECT_EQ(vars[0].name, "core.rob=64,hier.l2.size=256k");
    EXPECT_EQ(vars[1].name, "core.rob=64,hier.l2.size=512k");
    EXPECT_EQ(vars[2].name, "core.rob=64,hier.l2.size=1M");
    EXPECT_EQ(vars[3].name, "core.rob=128,hier.l2.size=256k");
    EXPECT_EQ(vars[5].name, "core.rob=128,hier.l2.size=1M");

    const RunConfig cfg = spec.resolve(vars[2]);
    EXPECT_EQ(cfg.system.core.ruu_size, 64u);
    EXPECT_EQ(cfg.system.hier.l2.size, 1u << 20);
}

TEST(SweepSpec, TraceSlotsSharedAcrossNonWindowVariants)
{
    // An L2-size axis leaves the trace window untouched: both
    // variants of each benchmark must share one trace slot, so the
    // trace is materialized (and refcounted) once.
    const TaskPlan plan(twoVariantSpec());
    EXPECT_EQ(plan.variantCount(), 2u);
    EXPECT_EQ(plan.size(), 8u);
    EXPECT_EQ(plan.traceSlotCount(), 2u); // one per benchmark

    // A window axis splits the slots.
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse(
        "sweep-spec v1\nbench swim gzip\nmech Base\n"
        "axis window.trace_length 100k 200k\n", spec, &error))
        << error;
    const TaskPlan windowed(spec);
    EXPECT_EQ(windowed.traceSlotCount(), 4u); // benchmark x window

    // Distinct configs fingerprint distinctly: variants can never
    // collide in the result store.
    EXPECT_NE(plan.configHash(0), plan.configHash(1));
}

TEST(SweepSpec, TwoVariantShardDeterminism)
{
    const SweepSpec spec = twoVariantSpec();
    const TaskPlan plan(spec);
    const std::size_t total = plan.size();

    // Single-process reference.
    SweepResult reference;
    {
        EngineOptions opts;
        opts.threads = 2;
        ExperimentEngine engine(opts);
        reference = engine.run(spec);
    }

    // Two shards, separate engines and stores — the separate-host
    // workflow — then merge their stores.
    std::vector<std::string> shard_paths;
    for (std::size_t i = 0; i < 2; ++i) {
        const std::string path =
            tmpPath("shard" + std::to_string(i) + ".store");
        std::remove(path.c_str());
        shard_paths.push_back(path);
        ResultStore store(path);
        EngineOptions opts;
        opts.threads = 2;
        opts.store = &store;
        opts.shard = ShardSpec{i, 2};
        ExperimentEngine engine(opts);
        engine.run(spec);
        EXPECT_EQ(engine.lastRun().executed +
                      engine.lastRun().skipped,
                  total);
    }

    const std::string merged_path = tmpPath("merged.store");
    std::remove(merged_path.c_str());
    ResultStore merged(merged_path);
    std::size_t merged_records = 0;
    for (const auto &path : shard_paths)
        merged_records += merged.merge(path);
    EXPECT_EQ(merged_records, total);
    EXPECT_EQ(merged.compact(), total);

    // Resuming the whole plan from the merged-and-compacted store
    // executes nothing and reproduces the reference bit-for-bit.
    EngineOptions opts;
    opts.threads = 2;
    opts.store = &merged;
    ExperimentEngine engine(opts);
    const SweepResult combined = engine.run(spec);
    EXPECT_EQ(engine.lastRun().executed, 0u);
    EXPECT_EQ(engine.lastRun().resumed, total);
    expectIdentical(reference, combined);

    for (const auto &path : shard_paths)
        std::remove(path.c_str());
    std::remove(merged_path.c_str());
}

TEST(SweepSpec, InterruptedVariantSweepResumesOnlyMissingTasks)
{
    const SweepSpec spec = twoVariantSpec();
    const TaskPlan plan(spec);
    const std::size_t total = plan.size();

    // Complete the sweep once to obtain its full store...
    const std::string full_path = tmpPath("resume_full.store");
    std::remove(full_path.c_str());
    SweepResult reference;
    {
        ResultStore store(full_path);
        EngineOptions opts;
        opts.threads = 2;
        opts.store = &store;
        ExperimentEngine engine(opts);
        reference = engine.run(spec);
        ASSERT_EQ(store.size(), total);
    }

    // ..."kill" it after 3 completed tasks: records are appended and
    // flushed as runs finish, so this is exactly the store an
    // interrupted sweep leaves.
    const std::string half_path = tmpPath("resume_half.store");
    const std::size_t kept =
        truncateStoreFile(full_path, half_path, 3);
    ASSERT_EQ(kept, 3u);

    ResultStore store(half_path);
    EngineOptions opts;
    opts.threads = 2;
    opts.store = &store;
    ExperimentEngine engine(opts);
    const SweepResult resumed = engine.run(spec);
    EXPECT_EQ(engine.lastRun().resumed, kept);
    EXPECT_EQ(engine.lastRun().executed, total - kept);
    EXPECT_EQ(store.size(), total);
    expectIdentical(reference, resumed);

    std::remove(full_path.c_str());
    std::remove(half_path.c_str());
}

TEST(SweepSpec, SingleWrapsClassicApiWithHistoricIndices)
{
    // The one-variant plan must reduce to the historic flat index
    // b * mechanisms + m, so stores written before the variant
    // dimension existed resume unchanged.
    RunConfig cfg;
    cfg.scale.simpoint_trace = 100'000;
    cfg.scale.simpoint_interval = 100'000;
    const TaskPlan plan({"Base", "TP"}, {"swim", "gzip"}, cfg);
    EXPECT_EQ(plan.variantCount(), 1u);
    EXPECT_EQ(plan.variantName(0), "base");
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(plan.task(i).index, i);
        EXPECT_EQ(plan.task(i).index,
                  plan.task(i).b * 2 + plan.task(i).m);
        EXPECT_EQ(plan.task(i).v, 0u);
    }
    EXPECT_EQ(plan.configHash(0), fingerprintConfig(cfg));
}

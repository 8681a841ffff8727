/** @file SweepSpec tests: parse/serialize round-trips, cross-host
 *  canonical-hash stability, useful rejection of bad specs, variant
 *  expansion/trace-slot sharing, and the determinism contract of a
 *  2-variant sweep sharded over separate stores (merged byte-
 *  identical to single-process; an interrupted sweep resumes exactly
 *  the missing (benchmark, mechanism, variant) tasks). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"

#include "spec_helpers.hh"

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

TEST(SweepSpec, SettersRejectUnknownNamesLikeParse)
{
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(spec.setBenchmarks({"swim", "pchase"}, &error)) << error;
    ASSERT_TRUE(spec.setMechanisms({"Base", "GHB"}, &error)) << error;

    // A bad name fails with parse()'s message and leaves the list
    // as it was.
    EXPECT_FALSE(spec.setBenchmarks({"swim", "nosuch"}, &error));
    EXPECT_NE(error.find("unknown benchmark 'nosuch'"), std::string::npos)
        << error;
    EXPECT_FALSE(spec.setMechanisms({"NoMech"}, &error));
    EXPECT_NE(error.find("unknown mechanism 'NoMech'"), std::string::npos)
        << error;
    EXPECT_EQ(spec.benchmarks(),
              (std::vector<std::string>{"swim", "pchase"}));
    EXPECT_EQ(spec.mechanisms(), (std::vector<std::string>{"Base", "GHB"}));

    // What the setters accept, parse accepts: the printed spec
    // round-trips.
    SweepSpec back;
    ASSERT_TRUE(SweepSpec::parse(spec.canonicalText(), back, &error))
        << error;
    EXPECT_EQ(back.canonicalText(), spec.canonicalText());
}

TEST(SweepSpec, EveryRegistryKeyMovesTheConfigFingerprint)
{
    // The config half of the dead-knob rule: a key whose value never
    // reaches the fingerprinted config would run every variant as
    // the same cell. One non-default value per key (at every
    // MICROLIB_QUICK setting), under the settings that make the key
    // apply: a window key only shapes its own selection mode's
    // window.
    struct Knob
    {
        AxisSetting setting;
        Settings mode;
    };
    const Settings arbitrary = {{"window.selection", "arbitrary"}};
    const Settings constant = {{"hier.memory", "const"}};
    const std::vector<Knob> knobs = {
        {{"core.rob", "64"}, {}},
        {{"core.lsq", "64"}, {}},
        {{"core.fetch_width", "4"}, {}},
        {{"core.commit_width", "4"}, {}},
        {{"core.mispredict_rate", "0.5"}, {}},
        {{"core.mispredict_penalty", "10"}, {}},
        {{"hier.l1d.size", "64k"}, {}},
        {{"hier.l1d.assoc", "2"}, {}},
        {{"hier.l1d.latency", "2"}, {}},
        {{"hier.l1d.mshrs", "4"}, {}},
        {{"hier.l1d.ports", "2"}, {}},
        {{"hier.l1i.size", "64k"}, {}},
        {{"hier.l1i.assoc", "2"}, {}},
        {{"hier.l1i.latency", "2"}, {}},
        {{"hier.l1i.mshrs", "4"}, {}},
        {{"hier.l1i.ports", "2"}, {}},
        {{"hier.l2.size", "512k"}, {}},
        {{"hier.l2.assoc", "8"}, {}},
        {{"hier.l2.latency", "20"}, {}},
        {{"hier.l2.mshrs", "4"}, {}},
        {{"hier.l2.ports", "2"}, {}},
        {{"hier.finite_mshr", "0"}, {}},
        {{"hier.pipeline_stalls", "0"}, {}},
        {{"hier.refill_uses_ports", "0"}, {}},
        {{"hier.memory", "const"}, {}},
        {{"hier.const_latency", "100"}, constant},
        {{"hier.sdram.banks", "8"}, {}},
        {{"hier.sdram.cas_latency", "10"}, {}},
        {{"hier.sdram.queue", "16"}, {}},
        {{"hier.sdram.timing_scale", "0.4"}, {}},
        {{"window.selection", "arbitrary"}, {}},
        {{"window.trace_length", "100000"}, {}},
        {{"window.interval", "100000"}, {}},
        {{"window.k", "2"}, {}},
        {{"window.skip", "1000"}, arbitrary},
        {{"window.length", "100000"}, arbitrary},
        {{"mech.tcp_buffer", "1"}, {}},
        {{"mech.second_guess", "1"}, {}},
    };
    EXPECT_EQ(knobs.size(), axisRegistry().size());
    for (const AxisParam &param : axisRegistry()) {
        const auto it =
            std::find_if(knobs.begin(), knobs.end(), [&](const Knob &k) {
                return k.setting.key == param.key;
            });
        ASSERT_NE(it, knobs.end())
            << param.key << ": no case here; add one";
        Settings with = it->mode;
        with.push_back(it->setting);
        EXPECT_NE(fingerprintConfig(configOf(with)),
                  fingerprintConfig(configOf(it->mode)))
            << param.key << "=" << it->setting.value
            << " leaves the resolved config unchanged";
    }
}

TEST(SweepSpec, PaperSettingsResolveToTheirPinnedConfigs)
{
    // The settings microlib_paper uses for the configurations the
    // hier.* keys were added for (constant memory, scaled SDRAM, the
    // Figure 1 cache steps, ...). The pinned fingerprints are those
    // of the RunConfigs the figures used to build by hand, so store
    // records made from them stay valid. Every list starts with an
    // explicit window, so the fingerprints do not depend on
    // MICROLIB_QUICK.
    const Settings window = {
        {"window.trace_length", "100000"}, {"window.interval", "100000"},
        {"window.k", "4"},                 {"window.skip", "50000"},
        {"window.length", "100000"},
    };
    auto cache = [](const char *finite_mshr, const char *pipeline_stalls,
                    const char *refill_uses_ports) {
        return Settings{
            {"hier.finite_mshr", finite_mshr},
            {"hier.pipeline_stalls", pipeline_stalls},
            {"hier.refill_uses_ports", refill_uses_ports}};
    };
    struct Case
    {
        const char *name;
        Settings settings;
        std::uint64_t fingerprint;
    };
    const std::vector<Case> cases = {
        {"validation",
         {{"hier.memory", "const"},
          {"hier.const_latency", "70"},
          {"window.selection", "arbitrary"}},
         0x5bf43689249f2851ull},
        {"const-70",
         {{"hier.memory", "const"}, {"hier.const_latency", "70"}},
         0x4d1821be1a79807full},
        {"sdram-70", {{"hier.sdram.timing_scale", "0.4"}},
         0x471761690d454be6ull},
        {"infinite MSHR", {{"hier.finite_mshr", "0"}},
         0xb6a758b450208ea1ull},
        {"SimpleScalar-like", cache("0", "0", "0"), 0x2b8637b1d594d18bull},
        {"+ finite MSHR", cache("1", "0", "0"), 0xf3fa3a8fc59b44fcull},
        {"+ pipeline stalls", cache("1", "1", "0"), 0x520cf43ec6fedf45ull},
        {"+ LSQ back-pressure", cache("1", "1", "0"), 0x520cf43ec6fedf45ull},
        {"+ refills use ports", cache("1", "1", "1"), 0xae6d44ee3e21d9daull},
    };
    for (const Case &c : cases) {
        Settings settings = window;
        settings.insert(settings.end(), c.settings.begin(),
                        c.settings.end());
        EXPECT_EQ(fingerprintConfig(configOf(settings)), c.fingerprint)
            << c.name;
    }
    // The last Figure 1 step is the detailed model itself.
    EXPECT_EQ(fingerprintConfig(configOf(window)),
              cases.back().fingerprint);
}

TEST(SweepSpec, HierarchyKeysSetEveryCacheLevelAndScaleInOrder)
{
    const RunConfig ideal = configOf({{"hier.finite_mshr", "off"},
                                      {"hier.pipeline_stalls", "off"},
                                      {"hier.refill_uses_ports", "off"}});
    for (const CacheParams *c : {&ideal.system.hier.l1d,
                                 &ideal.system.hier.l1i,
                                 &ideal.system.hier.l2}) {
        EXPECT_FALSE(c->finite_mshr) << c->name;
        EXPECT_FALSE(c->pipeline_stalls) << c->name;
        EXPECT_FALSE(c->refill_uses_ports) << c->name;
        EXPECT_TRUE(c->port_contention) << c->name; // demand ports stay
    }

    // The scale multiplies the timings already set, in settings
    // order; a later timing setting overrides it.
    const RunConfig defaults;
    const RunConfig scaled =
        configOf({{"hier.sdram.timing_scale", "0.4"}});
    EXPECT_EQ(scaled.system.hier.sdram.cas_latency, 12u);
    EXPECT_EQ(scaled.system.hier.sdram.ras_cycle, 44u);
    EXPECT_EQ(scaled.system.hier.sdram.banks,
              defaults.system.hier.sdram.banks);
    EXPECT_EQ(configOf({{"hier.sdram.cas_latency", "20"},
                        {"hier.sdram.timing_scale", "0.5"}})
                  .system.hier.sdram.cas_latency,
              10u);
    EXPECT_EQ(configOf({{"hier.sdram.timing_scale", "0.5"},
                        {"hier.sdram.cas_latency", "20"}})
                  .system.hier.sdram.cas_latency,
              20u);

    SweepSpec spec;
    std::string error;
    for (const char *bad : {"0", "1.5", "-0.4", "x", "0.4x"})
        EXPECT_FALSE(spec.addBase("hier.sdram.timing_scale", bad, &error))
            << bad;
    EXPECT_FALSE(spec.addBase("hier.finite_mshr", "2", &error));
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
    // trace is materialized once.
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

TEST(SweepSpec, MechanismAxisSharesBaseCellKeys)
{
    // Variants differing only in a mech.* option key their Base
    // cells alike (so the store resumes one for the other) and their
    // mechanism cells apart.
    SweepSpec spec;
    std::string error;
    ASSERT_TRUE(SweepSpec::parse(
        "sweep-spec v1\nbench swim\nmech Base DBCP TCP\n"
        "axis mech.second_guess 0 1\n", spec, &error))
        << error;
    const TaskPlan plan(spec);
    ASSERT_EQ(plan.size(), 6u);
    for (std::size_t m = 0; m < 3; ++m) {
        const ResultKey k0 = plan.resultKey(m), k1 = plan.resultKey(3 + m);
        ASSERT_EQ(k0.mechanism, k1.mechanism);
        if (k0.mechanism == "Base")
            EXPECT_EQ(k0.str(), k1.str());
        else
            EXPECT_NE(k0.str(), k1.str()) << k0.mechanism;
    }
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

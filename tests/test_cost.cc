/** @file Unit tests for the CACTI/XCACTI stand-in cost models. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/registry.hh"
#include "core/result_store.hh"
#include "cost/cacti.hh"
#include "cost/mechanism_cost.hh"
#include "cost/xcacti.hh"

using namespace microlib;

TEST(Cacti, AreaMonotonicInSize)
{
    const SramSpec small{"s", 1024, 1, 1};
    const SramSpec big{"b", 1024 * 1024, 1, 1};
    EXPECT_LT(sramAreaMm2(small), sramAreaMm2(big));
}

TEST(Cacti, PortsCostArea)
{
    const SramSpec one{"s", 32 * 1024, 1, 1};
    const SramSpec four{"s", 32 * 1024, 1, 4};
    EXPECT_LT(sramAreaMm2(one), sramAreaMm2(four));
}

TEST(Cacti, CamCostsMoreThanRam)
{
    const SramSpec ram{"r", 512, 1, 1};
    const SramSpec cam{"c", 512, 0, 1}; // assoc 0 = fully associative
    EXPECT_LT(sramAreaMm2(ram), sramAreaMm2(cam));
}

TEST(Cacti, EmptySpecIsFree)
{
    EXPECT_EQ(sramAreaMm2({"none", 0, 1, 1}), 0.0);
}

TEST(Cacti, CacheAreaIncludesTags)
{
    const double data_only = sramAreaMm2({"d", 32 * 1024, 1, 1});
    const double full = cacheAreaMm2(32 * 1024, 32, 1, 1);
    EXPECT_GT(full, data_only);
}

TEST(Xcacti, EnergyMonotonicInSize)
{
    EXPECT_LT(accessEnergyNj({"s", 8 * 1024, 1, 1}),
              accessEnergyNj({"b", 1024 * 1024, 1, 1}));
}

TEST(Xcacti, FullyAssociativeEnergyPenalty)
{
    EXPECT_LT(accessEnergyNj({"r", 512, 1, 1}),
              accessEnergyNj({"c", 512, 0, 1}));
}

TEST(MechanismCost, MarkovDwarfsSp)
{
    // The paper's Figure 5 headline: Markov/DBCP megabyte tables vs
    // SP/GHB's hundreds of bytes.
    MechanismConfig mc;
    auto markov = makeMechanism("Markov", mc);
    auto sp = makeMechanism("SP", mc);
    const double markov_area = totalAreaMm2(markov->hardware());
    const double sp_area = totalAreaMm2(sp->hardware());
    EXPECT_GT(markov_area, 50.0 * sp_area);
}

TEST(MechanismCost, RatiosComputed)
{
    RunOutput mech_run, base_run;
    mech_run.mechanism = "SP";
    const std::vector<SramSpec> hardware = {{"sp.rpt", 8192, 1, 1}};
    mech_run.stats["l1d.demand_accesses"] = 1e6;
    mech_run.stats["l2.demand_accesses"] = 1e5;
    mech_run.stats["mech.SP.table_reads"] = 1e6;
    mech_run.stats["mech.SP.prefetches_issued"] = 1e4;
    base_run.stats["l1d.demand_accesses"] = 1e6;
    base_run.stats["l2.demand_accesses"] = 1e5;

    const BaselineConfig sys = makeBaseline();
    const CostReport rep = computeCost(mech_run, hardware, base_run, sys);
    EXPECT_GT(rep.area_ratio, 0.0);
    EXPECT_LT(rep.area_ratio, 0.1); // 8 KB vs ~1 MB of cache
    EXPECT_GT(rep.power_ratio, 1.0); // extra activity costs energy
}

TEST(MechanismCost, DbcpAreaRatioIsLarge)
{
    const RunConfig cfg;
    RunOutput run, base;
    run.mechanism = "DBCP";
    const CostReport rep = computeCost(
        run, mechanismHardware("DBCP", cfg), base, cfg.system);
    EXPECT_GT(rep.area_ratio, 0.5); // ~2MB of tables vs ~1MB caches
    EXPECT_TRUE(mechanismHardware("Base", cfg).empty());
}

TEST(MechanismCost, StoredRunCostsLikeAFreshOne)
{
    // Figure 5 prices runs a sweep resumed from its store: their
    // cost must not lose the mechanism's area or energy terms.
    RunConfig cfg;
    cfg.scale.simpoint_trace = 100'000;
    cfg.scale.simpoint_interval = 100'000;
    const MaterializedTrace trace = materializeFor("swim", cfg);
    const RunOutput base = runOne(trace, "Base", cfg);
    const RunOutput fresh = runOne(trace, "GHB", cfg);

    const std::string path =
        testing::TempDir() + "microlib_cost_roundtrip.store";
    std::remove(path.c_str());
    const std::uint64_t h = fingerprintConfig(cfg);
    ResultStore(path).put(
        makeRecord(makeResultKey("swim", "GHB", h), fresh));
    const auto rec =
        ResultStore(path).find(makeResultKey("swim", "GHB", h));
    std::remove(path.c_str());
    ASSERT_TRUE(rec.has_value());
    const RunOutput stored = toRunOutput(*rec);

    const auto hw = mechanismHardware("GHB", cfg);
    const CostReport a = computeCost(fresh, hw, base, cfg.system);
    const CostReport b = computeCost(stored, hw, base, cfg.system);
    EXPECT_GT(a.area_ratio, 0.0);
    EXPECT_GT(a.power_ratio, 1.0); // GHB's table walks cost energy
    EXPECT_EQ(a.mechanism_area_mm2, b.mechanism_area_mm2);
    EXPECT_EQ(a.base_area_mm2, b.base_area_mm2);
    EXPECT_EQ(a.area_ratio, b.area_ratio);
    EXPECT_EQ(a.power_ratio, b.power_ratio);
}

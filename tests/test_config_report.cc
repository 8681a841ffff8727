/** @file Unit tests for parameter tables and report rendering. */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <sstream>

#include "core/baseline_config.hh"
#include "sim/config.hh"
#include "sim/report.hh"

using namespace microlib;

TEST(ParamTable, SectionsAndRows)
{
    ParamTable t;
    t.section("Core");
    t.add("width", 8);
    t.add("freq", "2 GHz");
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("-- Core --"), std::string::npos);
    EXPECT_NE(out.find("width"), std::string::npos);
    EXPECT_NE(out.find("2 GHz"), std::string::npos);
}

TEST(Table, AlignedOutput)
{
    Table t("demo");
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.rowNumeric("b", {2.5}, 1);
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("demo"), std::string::npos);
    EXPECT_NE(os.str().find("2.5"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumFormatting)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Table, RowWidthMismatchPanics)
{
    Table t("demo");
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only one"}), "");
}

TEST(BaselineConfig, Table1Values)
{
    const BaselineConfig cfg = makeBaseline();
    EXPECT_EQ(cfg.core.ruu_size, 128u);
    EXPECT_EQ(cfg.core.lsq_size, 128u);
    EXPECT_EQ(cfg.core.fetch_width, 8u);
    EXPECT_EQ(cfg.hier.l1d.size, 32u * 1024);
    EXPECT_EQ(cfg.hier.l1d.assoc, 1u);
    EXPECT_EQ(cfg.hier.l1d.line, 32u);
    EXPECT_EQ(cfg.hier.l1d.ports, 4u);
    EXPECT_EQ(cfg.hier.l1d.mshrs, 8u);
    EXPECT_EQ(cfg.hier.l2.size, 1024u * 1024);
    EXPECT_EQ(cfg.hier.l2.assoc, 4u);
    EXPECT_EQ(cfg.hier.l2.line, 64u);
    EXPECT_EQ(cfg.hier.l2.latency, 12u);
    EXPECT_EQ(cfg.hier.sdram.banks, 4u);
    EXPECT_EQ(cfg.hier.sdram.rows, 8192u);
    EXPECT_EQ(cfg.hier.sdram.cas_latency, 30u);
    EXPECT_EQ(cfg.hier.sdram.ras_cycle, 110u);
    EXPECT_EQ(cfg.hier.sdram.queue_entries, 32u);
}

TEST(BaselineConfig, DescribeProducesTable1)
{
    const ParamTable t = describeBaseline(makeBaseline());
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("SDRAM"), std::string::npos);
    EXPECT_NE(os.str().find("128-RUU"), std::string::npos);
}

TEST(TraceScale, DefaultsArePaperScaled)
{
    // MICROLIB_QUICK=1 (the CI ctest environment) shrinks every
    // window 4x; the paper-scale assertion must account for it.
    const char *quick = std::getenv("MICROLIB_QUICK");
    const std::uint64_t div = (quick && quick[0] == '1') ? 4 : 1;
    const TraceScale s = makeTraceScale();
    EXPECT_EQ(s.simpoint_trace, 2'000'000u / div);  // 500 M / 250
    EXPECT_GT(s.arbitrary_length, s.simpoint_trace);
}

/** @file Unit tests for the declared option table and the strict
 *  number / MICROLIB_* environment readers (sim/options.hh). */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "sim/options.hh"

using namespace microlib;

namespace
{

/** Settings of a small tool exercising every row kind. */
struct Settings
{
    std::string store;
    unsigned threads = 0;
    std::size_t lease = 4;
    double timeout = 0.0;
    std::optional<std::string> report;
    std::vector<std::string> merge;
    std::string backend = "thread";
    bool verbose = false;
};

OptionTable
table(Settings &s)
{
    OptionTable t("demo_tool", "[options]", "Exit status: 0 or 2");
    t.section("Things:")
        .add(shared_flags::store, s.store)
        .add(shared_flags::threads, s.threads)
        .add("--lease", "N", "tasks per lease", s.lease, 1)
        .add(shared_flags::heartbeat_timeout, s.timeout)
        .section("Output:")
        .add(shared_flags::report, s.report)
        .add("--merge", "STORE", "merge stores", s.merge)
        .add(OptionRow::choice("--backend", {"thread", "process"},
                               "execution backend", s.backend))
        .add(shared_flags::verbose, s.verbose);
    return t;
}

/** Parse @p args (argv[0] prepended) into @p s; the exit status or
 *  -1 for "run", with stdout/stderr captured. */
struct Outcome
{
    int status = -1;
    std::string out, err;
};

Outcome
run(Settings &s, std::vector<const char *> args)
{
    args.insert(args.begin(), "demo_tool");
    std::ostringstream out, err;
    const auto status = table(s).parse(static_cast<int>(args.size()),
                                       args.data(), out, err);
    return {status ? *status : -1, out.str(), err.str()};
}

struct EnvGuard
{
    EnvGuard(const char *name, const char *value) : _name(name)
    {
        setenv(name, value, 1);
    }
    ~EnvGuard() { unsetenv(_name); }
    const char *_name;
};

} // namespace

TEST(ParseCount, AcceptsOnlyDigitsInRange)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(parseCount("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseCount("18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
    for (const char *bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10",
                            "18446744073709551616", "99999999999999999999"})
        EXPECT_FALSE(parseCount(bad, v)) << bad;
    EXPECT_TRUE(parseCount("4294967295", v, 0, UINT32_MAX));
    EXPECT_FALSE(parseCount("4294967296", v, 0, UINT32_MAX));
    EXPECT_FALSE(parseCount("0", v, 1));
    EXPECT_FALSE(parseCount("2", v, 0, 1));
}

TEST(ParseSeconds, FiniteAndNonNegative)
{
    double s = -1;
    EXPECT_TRUE(parseSeconds("0", s));
    EXPECT_EQ(s, 0.0);
    EXPECT_TRUE(parseSeconds("0.5", s));
    EXPECT_EQ(s, 0.5);
    EXPECT_TRUE(parseSeconds("1e3", s));
    EXPECT_EQ(s, 1000.0);
    for (const char *bad : {"", "-1", "+1", " 1", "1s", "inf", "nan",
                            "1e999"})
        EXPECT_FALSE(parseSeconds(bad, s)) << bad;
}

TEST(SplitList, DropsEmptyFields)
{
    EXPECT_EQ(splitList("a,b,,c,"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(splitList("").empty());
}

TEST(OptionTable, AppliesEveryRowKind)
{
    Settings s;
    const Outcome o =
        run(s, {"--store", "x.store", "--threads", "8", "--lease", "2",
                "--heartbeat-timeout", "1.5", "--merge", "a", "b",
                "--backend", "process", "--verbose"});
    EXPECT_EQ(o.status, -1) << o.err;
    EXPECT_EQ(s.store, "x.store");
    EXPECT_EQ(s.threads, 8u);
    EXPECT_EQ(s.lease, 2u);
    EXPECT_EQ(s.timeout, 1.5);
    EXPECT_EQ(s.merge, (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(s.backend, "process");
    EXPECT_TRUE(s.verbose);
    EXPECT_FALSE(s.report);
}

TEST(OptionTable, OptionalValueStopsAtFlagsButTakesLoneDash)
{
    Settings a;
    EXPECT_EQ(run(a, {"--report"}).status, -1);
    EXPECT_EQ(a.report, std::optional<std::string>(""));

    Settings b;
    EXPECT_EQ(run(b, {"--report", "-"}).status, -1);
    EXPECT_EQ(b.report, std::optional<std::string>("-"));

    Settings c;
    EXPECT_EQ(run(c, {"--report", "out.txt", "--verbose"}).status, -1);
    EXPECT_EQ(c.report, std::optional<std::string>("out.txt"));
    EXPECT_TRUE(c.verbose);

    Settings d;
    EXPECT_EQ(run(d, {"--report", "--verbose"}).status, -1);
    EXPECT_EQ(d.report, std::optional<std::string>(""));
    EXPECT_TRUE(d.verbose);
}

TEST(OptionTable, MultiValueTakesArgumentsUpToTheNextFlag)
{
    Settings s;
    EXPECT_EQ(run(s, {"--merge", "a", "b", "c", "--verbose"}).status, -1);
    EXPECT_EQ(s.merge, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_TRUE(s.verbose);

    Settings empty;
    const Outcome o = run(empty, {"--merge", "--verbose"});
    EXPECT_EQ(o.status, 2);
    EXPECT_NE(o.err.find("--merge"), std::string::npos) << o.err;
}

TEST(OptionTable, UsageErrorsExitTwoAndNameTheFlag)
{
    const std::vector<std::pair<std::vector<const char *>, const char *>>
        cases = {
            {{"--bogus"}, "--bogus"},
            {{"positional"}, "positional"},
            {{"--store"}, "--store"},
            {{"--threads", "-1"}, "--threads"},
            {{"--threads", "4294967296"}, "--threads"},
            {{"--threads", "abc"}, "--threads"},
            {{"--lease", "-1"}, "--lease"},
            {{"--lease", "0"}, "--lease"},
            {{"--lease", "18446744073709551616"}, "--lease"},
            {{"--heartbeat-timeout", "-1"}, "--heartbeat-timeout"},
            {{"--backend", "service"}, "--backend"},
        };
    for (const auto &[args, flag] : cases) {
        Settings s;
        const Outcome o = run(s, args);
        EXPECT_EQ(o.status, 2) << flag;
        EXPECT_NE(o.err.find(flag), std::string::npos) << o.err;
        EXPECT_TRUE(o.out.empty()) << o.out;
    }
}

TEST(OptionTable, OperandsInterleaveWithFlags)
{
    Settings s;
    std::vector<std::string> ops;
    OptionTable t = table(s);
    t.operands([&ops](const std::string &v) -> std::string {
        if (v == "bad")
            return "unknown operand '" + v + "'";
        ops.push_back(v);
        return {};
    });
    const char *ok[] = {"demo_tool", "a", "--store", "x", "b", "--verbose",
                        "c"};
    std::ostringstream out, err;
    EXPECT_FALSE(t.parse(7, ok, out, err)) << err.str();
    EXPECT_EQ(ops, (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(s.store, "x");
    EXPECT_TRUE(s.verbose);

    const char *bad[] = {"demo_tool", "a", "bad"};
    EXPECT_EQ(t.parse(3, bad, out, err), std::optional<int>(2));
    EXPECT_NE(err.str().find("unknown operand 'bad'"), std::string::npos)
        << err.str();
}

TEST(OptionTable, HelpListsEveryDeclaredRow)
{
    Settings s;
    const Outcome o = run(s, {"--help"});
    EXPECT_EQ(o.status, 0);
    EXPECT_EQ(o.out, table(s).help());
    for (const char *row :
         {"--store PATH", "--threads N", "--lease N",
          "--heartbeat-timeout SEC", "--report [PATH]",
          "--merge STORE...", "--backend thread|process", "--verbose",
          "--help", "--version", "Things:", "Output:",
          "Exit status: 0 or 2"})
        EXPECT_NE(o.out.find(row), std::string::npos) << row;
    // Count and seconds rows show their target's default.
    EXPECT_NE(o.out.find("(default 4)"), std::string::npos) << o.out;
    EXPECT_EQ(run(s, {"-h"}).status, 0);
}

TEST(OptionTable, GivenNamesTheFlagsOfTheLastParse)
{
    Settings s;
    OptionTable t = table(s);
    const char *first[] = {"demo_tool", "--verbose", "--threads", "2"};
    EXPECT_FALSE(t.parse(4, first));
    EXPECT_TRUE(t.given("--verbose"));
    EXPECT_TRUE(t.given("--threads"));
    EXPECT_FALSE(t.given("--store"));
    const char *second[] = {"demo_tool", "--store", "x"};
    EXPECT_FALSE(t.parse(3, second));
    EXPECT_FALSE(t.given("--verbose"));
    EXPECT_TRUE(t.given("--store"));
}

TEST(OptionTable, VersionExitsZero)
{
    Settings s;
    const Outcome o = run(s, {"--version"});
    EXPECT_EQ(o.status, 0);
    EXPECT_EQ(o.out.rfind("demo_tool ", 0), 0u) << o.out;
}

TEST(EnvReaders, CountUsesTheStrictParser)
{
    unsetenv("MICROLIB_TEST_COUNT");
    EXPECT_FALSE(envCount("MICROLIB_TEST_COUNT"));
    {
        EnvGuard g("MICROLIB_TEST_COUNT", "");
        EXPECT_FALSE(envCount("MICROLIB_TEST_COUNT"));
    }
    {
        EnvGuard g("MICROLIB_TEST_COUNT", "12");
        EXPECT_EQ(envCount("MICROLIB_TEST_COUNT"),
                  std::optional<std::uint64_t>(12));
        EXPECT_FALSE(envCount("MICROLIB_TEST_COUNT", 11));
    }
    for (const char *bad : {"-1", "abc", "3x"}) {
        EnvGuard g("MICROLIB_TEST_COUNT", bad);
        EXPECT_FALSE(envCount("MICROLIB_TEST_COUNT")) << bad;
    }
}

TEST(EnvReaders, FlagIsOnUnlessUnsetEmptyOrZero)
{
    unsetenv("MICROLIB_TEST_FLAG");
    EXPECT_FALSE(envFlag("MICROLIB_TEST_FLAG"));
    for (const char *off : {"", "0"}) {
        EnvGuard g("MICROLIB_TEST_FLAG", off);
        EXPECT_FALSE(envFlag("MICROLIB_TEST_FLAG")) << off;
    }
    for (const char *on : {"1", "yes", "2"}) {
        EnvGuard g("MICROLIB_TEST_FLAG", on);
        EXPECT_TRUE(envFlag("MICROLIB_TEST_FLAG")) << on;
    }
}

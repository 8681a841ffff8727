/**
 * @file
 * microlib_paper: every figure and table of the paper from one driver.
 *
 *   microlib_paper [--store PATH] [--verbose] [FIGURE...]
 *
 * Each figure is a function over one ExperimentEngine and its
 * ResultStore, and every simulated cell goes through
 * ExperimentEngine::run: figures get the worker pool and the store's
 * resume, and figures needing the same cells share them — across
 * figures in one process, and across invocations through the store.
 * Each configuration a figure sweeps is a list of registry settings
 * (docs/SWEEP_SPEC.md), so its assumptions are written down as data.
 * With no FIGURE every figure runs, in paper order. MICROLIB_QUICK=1
 * selects the 8-benchmark subset and 4x smaller windows (smoke
 * scale).
 */

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/exit_codes.hh"
#include "core/ranking.hh"
#include "core/registry.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/selections.hh"
#include "core/subset_winners.hh"
#include "core/sweep_spec.hh"
#include "cost/mechanism_cost.hh"
#include "mem/hierarchy.hh"
#include "sim/config.hh"
#include "sim/logging.hh"
#include "sim/options.hh"
#include "sim/report.hh"
#include "trace/spec_suite.hh"

using namespace microlib;

namespace
{

/** All 26 benchmarks, or an 8-benchmark subset under MICROLIB_QUICK. */
std::vector<std::string>
benchmarkSet()
{
    if (envFlag("MICROLIB_QUICK"))
        return {"ammp", "swim", "gzip", "mcf", "crafty", "lucas",
                "twolf", "gap"};
    return specBenchmarkNames();
}

/** Registry settings (docs/SWEEP_SPEC.md), applied in order to the
 *  Table 1 baseline. */
using Settings = std::vector<AxisSetting>;

/** What the figures of one invocation share. */
struct Paper
{
    ExperimentEngine &engine;
    const std::vector<std::string> benchmarks = benchmarkSet();
    const std::vector<std::string> &mechanisms = allMechanismNames();
    std::optional<MatrixResult> default_matrix;

    /** Run @p spec, reporting it as @p tag on `[run]`/`[store]`
     *  lines (the store line says how many cells resumed). */
    SweepResult
    sweep(const std::string &tag, const SweepSpec &spec)
    {
        std::cout << "[run] sweeping '" << tag << "' ("
                  << spec.mechanisms().size() << " mechanisms x "
                  << spec.benchmarks().size() << " benchmarks x "
                  << spec.variantCount() << " variants, "
                  << engine.threads() << " workers)...\n";
        SweepResult res = engine.run(spec);
        const RunCounters counts = engine.lastRun();
        std::cout << "[store] '" << tag << "': " << counts.resumed
                  << " resumed, " << counts.executed << " executed ("
                  << engine.resultStore()->path() << ")\n";
        return res;
    }

    /** @p mechs x every benchmark, with @p settings as the base
     *  settings; @p key, if given, is an axis over @p values. */
    SweepSpec
    spec(const std::string &tag, std::vector<std::string> mechs,
         const Settings &settings, const std::string &key = {},
         const std::vector<std::string> &values = {})
    {
        SweepSpec s;
        std::string error;
        bool ok = s.setMechanisms(std::move(mechs), &error) &&
                  s.setBenchmarks(benchmarks, &error);
        for (const AxisSetting &set : settings)
            ok = ok && s.addBase(set.key, set.value, &error);
        if (ok && !key.empty())
            ok = s.addAxis(key, values, &error);
        if (!ok)
            fatal(tag, ": ", error);
        return s;
    }

    /** @p mechs (default: all) x every benchmark under @p settings. */
    MatrixResult
    matrix(const std::string &tag, const Settings &settings,
           std::vector<std::string> mechs = {})
    {
        if (mechs.empty())
            mechs = mechanisms;
        return std::move(
            sweep(tag, spec(tag, std::move(mechs), settings))
                .matrices.front());
    }

    /** @p mechs x every benchmark under @p settings, once with @p key
     *  set to @p a (variant 0) and once to @p b (variant 1). */
    SweepResult
    versus(const std::string &tag, const Settings &settings,
           std::vector<std::string> mechs, const std::string &key,
           const std::string &a, const std::string &b)
    {
        return sweep(tag,
                     spec(tag, std::move(mechs), settings, key, {a, b}));
    }

    /** The default-configuration matrix, swept once per process. */
    const MatrixResult &
    defaultMatrix()
    {
        if (!default_matrix)
            default_matrix = matrix("default_matrix", {});
        return *default_matrix;
    }
};

/** Benchmark indices of @p names inside @p matrix (names absent from
 *  the quick subset are skipped). */
std::vector<std::size_t>
indicesOf(const MatrixResult &matrix,
          const std::vector<std::string> &names)
{
    std::vector<std::size_t> idx;
    for (const auto &n : names)
        for (std::size_t b = 0; b < matrix.benchmarks.size(); ++b)
            if (matrix.benchmarks[b] == n)
                idx.push_back(b);
    return idx;
}

/** Per-mechanism average-speedup ranking over @p subset (empty =
 *  all benchmarks). */
void
printRanking(const std::string &title, const MatrixResult &matrix,
             const std::vector<std::size_t> &subset = {})
{
    Table t(title);
    t.header({"rank", "mechanism", "avg speedup"});
    for (const auto &e : rankMechanisms(matrix, subset))
        t.row({std::to_string(e.rank), e.mechanism,
               Table::num(e.avg_speedup, 4)});
    t.print(std::cout);
}

/** One named column of ranks. */
using RankColumn = std::pair<std::string, std::vector<RankEntry>>;

/** One row per mechanism, its rank in each of @p columns. */
void
printRanks(const std::string &title,
           const std::vector<std::string> &mechanisms,
           const std::vector<RankColumn> &columns)
{
    Table t(title);
    std::vector<std::string> header = {"mechanism"};
    for (const auto &c : columns)
        header.push_back(c.first);
    t.header(header);
    for (const auto &name : mechanisms) {
        std::vector<std::string> row = {name};
        for (const auto &c : columns)
            row.push_back(std::to_string(rankOf(c.second, name)));
        t.row(row);
    }
    t.print(std::cout);
}

/**
 * Per-benchmark speedup of @p mech under variant 0 (column @p a) and
 * variant 1 (column @p b) of @p res, the delta from a to b, and an
 * AVG row whose delta cell is the mean |delta| if @p mean_delta,
 * else blank.
 */
void
printVersus(const std::string &title, const SweepResult &res,
            const std::string &mech, const std::string &a,
            const std::string &b, bool mean_delta)
{
    const MatrixResult &ma = res.matrix(0), &mb = res.matrix(1);
    const std::size_t m = ma.mechIndex(mech);
    Table t(title);
    t.header({"benchmark", a, b, "delta %"});
    double sum_a = 0.0, sum_b = 0.0, sum_delta = 0.0;
    for (std::size_t i = 0; i < ma.benchmarks.size(); ++i) {
        const double sa = ma.speedup(m, i), sb = mb.speedup(m, i);
        const double delta = 100.0 * (sb - sa) / sa;
        sum_a += sa;
        sum_b += sb;
        sum_delta += std::abs(delta);
        t.row({ma.benchmarks[i], Table::num(sa, 4), Table::num(sb, 4),
               Table::num(delta, 2)});
    }
    const double n = static_cast<double>(ma.benchmarks.size());
    t.row({"AVG", Table::num(sum_a / n, 4), Table::num(sum_b / n, 4),
           mean_delta ? Table::num(sum_delta / n, 2) : ""});
    t.print(std::cout);
}

/**
 * Figure 1 — MicroLib cache model validation.
 *
 * Paper claim: the hybrid SimpleScalar+MicroLib system differs from
 * the original SimpleScalar by 6.8% average IPC because of four
 * modeled behaviours (finite MSHR, pipeline stalls, LSQ back-
 * pressure, refills using real ports); after aligning SimpleScalar
 * step by step the residual difference is ~2%.
 *
 * Here: every benchmark runs under (a) the detailed MicroLib cache
 * model and (b) the SimpleScalar-like idealization, then the four
 * behaviours are enabled cumulatively to show the gap closing. The
 * model has three switches for them: LSQ back-pressure is what a
 * stalled cache pipeline does to the core, so its step sets the same
 * switches as the step before it.
 */
void
fig01(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 1: MicroLib cache model validation",
        "idealized SimpleScalar cache differs ~7% IPC from the "
        "detailed model; aligning 4 modeled behaviours closes the "
        "gap to ~2%");

    // Reference: the detailed MicroLib model (all realism on). All
    // configurations share one trace window per benchmark.
    const MatrixResult ref = p.matrix("fig01_detailed", {}, {"Base"});

    // Average |IPC difference| (%) of @p settings vs the reference.
    auto gap = [&](const std::string &tag, const Settings &settings,
                   Table *per_bench) {
        const MatrixResult m = p.matrix(tag, settings, {"Base"});
        double sum = 0.0;
        for (std::size_t b = 0; b < m.benchmarks.size(); ++b) {
            const double ipc = m.ipc[0][b];
            const double diff =
                100.0 * std::abs(ipc - ref.ipc[0][b]) / ref.ipc[0][b];
            sum += diff;
            if (per_bench)
                per_bench->row({m.benchmarks[b], "SimpleScalar",
                                Table::num(ipc, 4), Table::num(diff, 2)});
        }
        return sum / static_cast<double>(m.benchmarks.size());
    };

    Table per_bench("Per-benchmark IPC difference vs MicroLib model");
    per_bench.header({"benchmark", "model", "IPC", "diff %"});

    // The three cache switches (L1D, L1I and L2 alike).
    auto cache = [](const char *finite_mshr, const char *pipeline_stalls,
                    const char *refill_uses_ports) {
        return Settings{{"hier.finite_mshr", finite_mshr},
                        {"hier.pipeline_stalls", pipeline_stalls},
                        {"hier.refill_uses_ports", refill_uses_ports}};
    };

    // Step 0: fully SimpleScalar-like.
    const double base_diff =
        gap("fig01_simplescalar", cache("0", "0", "0"), &per_bench);
    per_bench.print(std::cout);

    // Cumulative alignment steps.
    const std::pair<std::string, Settings> aligned[] = {
        {"finite MSHR", cache("1", "0", "0")},
        {"pipeline stalls", cache("1", "1", "0")},
        {"LSQ back-pressure", cache("1", "1", "0")},
        {"refills use ports", cache("1", "1", "1")},
    };
    Table steps("Alignment steps (cumulative)");
    steps.header({"step", "avg IPC diff %"});
    steps.row({"SimpleScalar-like (none)", Table::num(base_diff, 2)});
    for (const auto &[name, settings] : aligned)
        steps.row({"+ " + name,
                   Table::num(gap("fig01_+" + name, settings, nullptr),
                              2)});
    steps.print(std::cout);

    std::cout << "\nPaper: 6.8% before alignment, 2% after. Expect the "
                 "first row well above the last.\n";
}

/** Validation setup of Figures 2 and 3, as in the paper's Section
 *  2.2: "skip, simulate" trace and the 70-cycle SimpleScalar memory. */
const Settings validation = {{"hier.memory", "const"},
                             {"hier.const_latency", "70"},
                             {"window.selection", "arbitrary"}};

/**
 * Figure 2 — Validation of TK, TCP and TKVC against the articles.
 *
 * Paper claim: reverse-engineered implementations differ from the
 * article graphs by ~5% average relative speedup error, with sign
 * flips on individual benchmarks (gcc, gzip under TK).
 *
 * The original bar graphs are not machine-readable here, so the
 * author-confirmed builds (post-contact configuration) stand in for
 * the article numbers, and the second-guessed initial builds play
 * the reverse-engineered implementations — the documented wrong
 * guesses are exactly the ones the paper describes (Section 2.2,
 * 3.4).
 */
void
fig02(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 2: validation of TK, TCP, TKVC",
        "reverse-engineered builds are ~5% off the article builds on "
        "average, with per-benchmark sign flips");

    const std::vector<std::string> mechs = {"TK", "TCP", "TKVC"};
    // Variant 0: the confirmed (article) builds; 1: second-guessed.
    const SweepResult res =
        p.versus("fig02_second_guess", validation,
                 {"Base", "TK", "TCP", "TKVC"}, "mech.second_guess", "0",
                 "1");
    const MatrixResult &article = res.matrix(0), &ours = res.matrix(1);

    Table t("Relative speedup error vs article (confirmed) build, %");
    auto header = std::vector<std::string>{"benchmark"};
    for (const auto &m : mechs)
        header.push_back(m);
    t.header(header);

    std::vector<double> err_sum(mechs.size(), 0.0);
    std::vector<unsigned> sign_flips(mechs.size(), 0);
    for (std::size_t b = 0; b < article.benchmarks.size(); ++b) {
        std::vector<std::string> row = {article.benchmarks[b]};
        for (std::size_t m = 0; m < mechs.size(); ++m) {
            const std::size_t i = article.mechIndex(mechs[m]);
            const double want = article.speedup(i, b);
            const double got = ours.speedup(i, b);
            const double err = 100.0 * (got - want) / want;
            err_sum[m] += std::abs(err);
            if ((want - 1.0) * (got - 1.0) < 0)
                ++sign_flips[m];
            row.push_back(Table::num(err, 2));
        }
        t.row(row);
    }

    std::vector<std::string> avg = {"AVG |err|"};
    for (std::size_t m = 0; m < mechs.size(); ++m)
        avg.push_back(Table::num(
            err_sum[m] / static_cast<double>(article.benchmarks.size()),
            2));
    t.row(avg);
    t.print(std::cout);

    std::cout << "\nSpeedup/slowdown sign flips:";
    for (std::size_t m = 0; m < mechs.size(); ++m)
        std::cout << " " << mechs[m] << "=" << sign_flips[m];
    std::cout << "\nPaper: average error ~5%, flips observed (e.g. "
                 "gcc/gzip for TK).\n";
}

/**
 * Figure 3 — Fixing the DBCP reverse-engineered implementation.
 *
 * Paper claim: the initial DBCP build (wrong benchmark ISA aside:
 * missing PC pre-hash, half-size correlation table, no confidence
 * decrement) differs from the fixed build by 38% average speedup;
 * interestingly the TK authors' own reverse-engineered DBCP matched
 * the *initial* (wrong) build. Validation setup as in Figure 2.
 */
void
fig03(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 3: fixing the DBCP implementation",
        "initial (second-guessed) vs fixed DBCP differ substantially "
        "in average speedup (paper: 38%)");

    printVersus("DBCP speedup: initial vs fixed build",
                p.versus("fig03_dbcp_fix", validation,
                         {"Base", "DBCP"}, "mech.second_guess", "1", "0"),
                "DBCP", "initial", "fixed", true);

    std::cout << "\nPaper: fixed build clearly stronger (their fixed "
                 "DBCP outperformed their TK by 32% after the fix).\n";
}

/**
 * Tables 2, 3 and 5 — mechanism inventory, configurations, and the
 * comparisons the original articles performed.
 *
 * Machine-checkable form of the paper's descriptive tables: the
 * registry (Table 2), each mechanism's parameter dump (Table 3), and
 * who compared against whom (Table 5: few articles compare against
 * more than one or two predecessors). Simulates nothing.
 */
void
table02(Paper &)
{
    printExperimentBanner(
        std::cout, "Tables 2/3/5: mechanism inventory",
        "twelve mechanisms spanning 1982-2004, their Table 3 "
        "configurations and prior-comparison record");

    Table t2("Table 2: target data cache optimizations");
    t2.header({"acronym", "level", "year", "mechanism"});
    for (const auto &d : mechanismRegistry())
        t2.row({d.acronym, d.level == CacheLevel::L1D ? "L1" : "L2",
                std::to_string(d.year), d.title});
    t2.print(std::cout);

    Table t5("Table 5: comparisons in the original articles");
    t5.header({"mechanism", "compared against"});
    for (const auto &d : mechanismRegistry()) {
        std::string versus;
        for (const auto &v : d.compared_against)
            versus += (versus.empty() ? "" : ", ") + v;
        if (versus.empty())
            versus = "(none)";
        t5.row({d.acronym, versus});
    }
    t5.print(std::cout);

    // Table 3: instantiate each mechanism and dump its parameters.
    std::cout << "\n== Table 3: configuration of cache optimizations ==\n";
    RunConfig cfg;
    Hierarchy hier(cfg.system.hier, nullptr);
    ParamTable params;
    for (const auto &d : mechanismRegistry()) {
        auto mech = d.make(cfg.mech);
        mech->bind(hier);
        mech->describe(params);
    }
    params.print(std::cout);

    std::cout << "\n== Table 1: baseline configuration ==\n";
    describeBaseline(cfg.system).print(std::cout);
}

/**
 * Figure 4 — Average IPC speedup of all mechanisms, 26 benchmarks.
 *
 * Paper claims:
 *  - GHB (2004) is the best performer, SP (1992!) second, TK third;
 *  - plain old TP performs "quite well";
 *  - FVC looks worse under IPC than under its article's miss-ratio
 *    metric; CDP is poor on average but helps twolf (1.07) and
 *    equake (1.11) while sinking mcf (0.75);
 *  - progress over 1990-2004 has been anything but regular.
 */
void
fig04(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 4: average IPC speedup ranking",
        "GHB best, SP second, TK strong, TP surprisingly good; CDP "
        "poor on average yet helps pointer codes");

    const MatrixResult &matrix = p.defaultMatrix();
    printRanking("Average speedup over all benchmarks (Figure 4)",
                 matrix);

    // The per-benchmark cases the paper singles out.
    Table cases("Paper case studies");
    cases.header({"benchmark", "mechanism", "speedup", "paper"});
    struct CaseStudy
    {
        const char *bench;
        const char *mech;
        const char *paper;
    };
    const CaseStudy studies[] = {
        {"twolf", "CDP", "1.07 (pointer structures helped)"},
        {"equake", "CDP", "1.11 (pointer structures helped)"},
        {"mcf", "CDP", "0.75 (useless prefetch flood)"},
        {"ammp", "CDP", "<1 (next pointer 88B down, missed)"},
        {"gzip", "Markov", "best mechanism on gzip"},
        {"ammp", "Markov", "best mechanism on ammp"},
    };
    for (const auto &s : studies) {
        const auto b = indicesOf(matrix, {s.bench});
        if (b.empty())
            continue;
        cases.row({s.bench, s.mech,
                   Table::num(matrix.speedup(matrix.mechIndex(s.mech),
                                             b.front()),
                              3),
                   s.paper});
    }
    cases.print(std::cout);

    // Full speedup matrix for reference.
    Table full("Speedup per benchmark (rows) and mechanism (cols)");
    std::vector<std::string> header = {"benchmark"};
    for (std::size_t m = 1; m < matrix.mechanisms.size(); ++m)
        header.push_back(matrix.mechanisms[m]);
    full.header(header);
    for (std::size_t b = 0; b < matrix.benchmarks.size(); ++b) {
        std::vector<std::string> row = {matrix.benchmarks[b]};
        for (std::size_t m = 1; m < matrix.mechanisms.size(); ++m)
            row.push_back(Table::num(matrix.speedup(m, b), 3));
        full.row(row);
    }
    full.print(std::cout);
}

/**
 * Figure 5 — Power and cost (area) ratios per mechanism.
 *
 * Paper claims:
 *  - Markov and DBCP are very expensive (megabyte tables);
 *  - TP, SP and GHB are nearly free in area;
 *  - GHB is nonetheless power-hungry: each miss can trigger up to 4
 *    requests and repeated table walks;
 *  - factoring cost and power, SP is the best overall trade-off,
 *    with TK and TP close.
 */
void
fig05(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 5: power and cost ratios",
        "Markov/DBCP huge area; TP/SP/GHB tiny; GHB power-hungry "
        "from activity; SP the best overall trade-off");

    const RunConfig cfg;
    const MatrixResult &matrix = p.defaultMatrix();
    const std::size_t base_m = matrix.mechIndex("Base");

    Table t("Area and power ratios (relative to base cache hierarchy)");
    t.header({"mechanism", "area ratio", "power ratio",
              "avg speedup"});
    for (std::size_t m = 0; m < matrix.mechanisms.size(); ++m) {
        if (m == base_m)
            continue;
        // Area is the same for every benchmark; power is averaged.
        const auto hw = mechanismHardware(matrix.mechanisms[m], cfg);
        double area_ratio = 0.0, power_sum = 0.0;
        for (std::size_t b = 0; b < matrix.benchmarks.size(); ++b) {
            const CostReport rep =
                computeCost(matrix.outputs[m][b], hw,
                            matrix.outputs[base_m][b], cfg.system);
            area_ratio = rep.area_ratio;
            power_sum += rep.power_ratio;
        }
        t.row({matrix.mechanisms[m], Table::num(area_ratio, 4),
               Table::num(power_sum /
                              static_cast<double>(
                                  matrix.benchmarks.size()),
                          3),
               Table::num(matrix.avgSpeedup(m), 4)});
    }
    t.print(std::cout);

    std::cout << "\nPaper: Markov/DBCP area-dominant; GHB cheap in "
                 "area but power-greedy; SP/TP efficient.\n";
}

/**
 * Figure 6 — Benchmark sensitivity to data-cache mechanisms.
 *
 * Paper claim: sensitivity varies enormously; wupwise, bzip2,
 * crafty, eon, perlbmk and vortex are barely sensitive, while apsi,
 * equake, fma3d, mgrid, swim and gap respond strongly and therefore
 * dominate any assessment of research ideas.
 */
void
fig06(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 6: benchmark sensitivity",
        "mechanism-induced speedup spread varies strongly across "
        "benchmarks; a small set dominates every comparison");

    const MatrixResult &matrix = p.defaultMatrix();
    const std::vector<double> sens = benchmarkSensitivity(matrix);

    std::vector<std::size_t> order(matrix.benchmarks.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  return sens[a] > sens[b];
              });

    auto in = [](const std::vector<std::string> &set,
                 const std::string &name) {
        return std::find(set.begin(), set.end(), name) != set.end();
    };
    Table t("Speedup spread (max - min over mechanisms), descending");
    t.header({"benchmark", "spread", "paper class"});
    for (const auto b : order) {
        const std::string &name = matrix.benchmarks[b];
        const char *cls = in(lowSensitivitySelection(), name)
                              ? "low (paper)"
                          : in(highSensitivitySelection(), name)
                              ? "high (paper)"
                              : "-";
        t.row({name, Table::num(sens[b], 4), cls});
    }
    t.print(std::cout);

    // Agreement check: how many of the paper's high-sensitivity six
    // land in our top half, and lows in the bottom half?
    const std::size_t half = matrix.benchmarks.size() / 2;
    unsigned high_ok = 0, low_ok = 0;
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
        const std::string &name = matrix.benchmarks[order[pos]];
        high_ok += pos < half && in(highSensitivitySelection(), name);
        low_ok += pos >= half && in(lowSensitivitySelection(), name);
    }
    std::cout << "\nAgreement with the paper's classification: "
              << high_ok << "/6 high-sensitivity in top half, "
              << low_ok << "/6 low-sensitivity in bottom half.\n";
}

/**
 * Figure 7 — Speedups on high- and low-sensitivity benchmark sets.
 *
 * Paper claim: both absolute performance and the mechanism ranking
 * are severely affected by restricting the comparison to the six
 * most or six least sensitive benchmarks.
 */
void
fig07(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 7: high- vs low-sensitivity selections",
        "restricting to the 6 most / least sensitive benchmarks "
        "changes absolute speedups and the ranking");

    const MatrixResult &matrix = p.defaultMatrix();
    const auto high = indicesOf(matrix, highSensitivitySelection());
    const auto low = indicesOf(matrix, lowSensitivitySelection());

    printRanking("All benchmarks", matrix);
    printRanking("High-sensitivity six", matrix, high);
    printRanking("Low-sensitivity six", matrix, low);

    printRanks("Rank per selection", matrix.mechanisms,
               {{"all", rankMechanisms(matrix)},
                {"high-6", rankMechanisms(matrix, high)},
                {"low-6", rankMechanisms(matrix, low)}});
}

/**
 * Table 6 — Which mechanism can win with N benchmarks?
 *
 * Paper claims: enumerating *every* benchmark subset shows that for
 * any selection of up to 23 benchmarks there is more than one
 * possible winner; weak-on-average mechanisms win surprisingly large
 * selections (FVC up to 12 benchmarks, Markov up to 9 thanks to
 * gzip/ammp) — cherry-picking can crown almost anything.
 */
void
table06(Paper &p)
{
    printExperimentBanner(
        std::cout, "Table 6: subset winners",
        "for N <= ~23 benchmarks more than one mechanism can be made "
        "the winner by selection");

    const MatrixResult &matrix = p.defaultMatrix();

    // Speedup matrix (Base included with speedup 1.0 everywhere).
    std::vector<std::vector<double>> speedup(
        matrix.mechanisms.size(),
        std::vector<double>(matrix.benchmarks.size(), 1.0));
    for (std::size_t m = 0; m < matrix.mechanisms.size(); ++m)
        for (std::size_t b = 0; b < matrix.benchmarks.size(); ++b)
            speedup[m][b] = matrix.speedup(m, b);

    std::cout << "Enumerating all 2^" << matrix.benchmarks.size()
              << " - 1 subsets (Gray-code sweep)...\n";
    const auto can_win = subsetWinners(speedup);

    Table t("Table 6: can mechanism M win an N-benchmark selection?");
    std::vector<std::string> header = {"N"};
    for (const auto &m : matrix.mechanisms)
        header.push_back(m);
    t.header(header);
    // Largest N at which more than one winner exists.
    std::size_t last_multi = 0;
    for (std::size_t n = 1; n < can_win.size(); ++n) {
        std::vector<std::string> row = {std::to_string(n)};
        for (std::size_t m = 0; m < matrix.mechanisms.size(); ++m)
            row.push_back(can_win[n][m] ? "x" : ".");
        t.row(row);
        if (std::count(can_win[n].begin(), can_win[n].end(), true) > 1)
            last_multi = n;
    }
    t.print(std::cout);

    std::cout << "\nMore than one possible winner up to N = "
              << last_multi << " (paper: 23 of 26).\n";
}

/**
 * Table 7 — Influence of benchmark selection on ranking.
 *
 * Paper claims: under the DBCP article's selection DBCP jumps from
 * rank 9 to rank 3, while GHB actually performs *better* on all 26
 * benchmarks than on its own article's selection, where SP overtakes
 * it.
 */
void
table07(Paper &p)
{
    printExperimentBanner(
        std::cout, "Table 7: article benchmark selections",
        "rankings under the full suite vs the DBCP/GHB article "
        "selections disagree");

    const MatrixResult &matrix = p.defaultMatrix();
    const auto rank_all = rankMechanisms(matrix);
    const auto rank_dbcp =
        rankMechanisms(matrix, indicesOf(matrix, dbcpSelection()));
    const auto rank_ghb =
        rankMechanisms(matrix, indicesOf(matrix, ghbSelection()));

    printRanks("Table 7: rank per benchmark selection", matrix.mechanisms,
               {{"26 benchmarks", rank_all},
                {"DBCP selection", rank_dbcp},
                {"GHB selection", rank_ghb}});

    std::cout << "\nDBCP: rank " << rankOf(rank_all, "DBCP")
              << " on the full suite vs " << rankOf(rank_dbcp, "DBCP")
              << " on its own selection (paper: 9 -> 3).\n";
    std::cout << "GHB vs SP on GHB's selection: GHB "
              << rankOf(rank_ghb, "GHB") << ", SP "
              << rankOf(rank_ghb, "SP")
              << " (paper: SP overtakes GHB there).\n";
}

/**
 * Figure 8 — Effect of the memory model on speedups and ranking.
 *
 * Paper claims:
 *  - moving from the SimpleScalar-like constant 70-cycle memory to
 *    the detailed SDRAM cuts average speedups by ~58-60%;
 *  - GHB loses far more than SP (-18.7% vs -2.8%): its extra traffic
 *    is punished by real memory access rules;
 *  - the ranking changes (DBCP beats VC/TKVC under constant latency,
 *    loses under SDRAM);
 *  - under SDRAM, average latency varies per benchmark (87..389
 *    cycles) and per mechanism (GHB turns lucas's 1.12 speedup into
 *    a 0.76 slowdown).
 */
void
fig08(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 8: memory model precision",
        "speedups shrink and rankings flip when a constant-latency "
        "memory is replaced by real SDRAM");

    const MatrixResult m_const = p.matrix(
        "const70_matrix",
        {{"hier.memory", "const"}, {"hier.const_latency", "70"}});
    // The SDRAM scaled to a ~70-cycle average latency (paper: CAS
    // cut from 6 to 2 memory cycles, roughly 1/2.5 on every timing).
    const MatrixResult m_s70 = p.matrix(
        "sdram70_matrix", {{"hier.sdram.timing_scale", "0.4"}});
    // The default Table 1 SDRAM.
    const MatrixResult &m_s170 = p.defaultMatrix();
    const auto &mechs = m_s170.mechanisms;
    const auto &benchs = m_s170.benchmarks;

    Table t("Average speedup per memory model");
    t.header({"mechanism", "const-70", "sdram-70", "sdram-170",
              "drop % (const->sdram170)"});
    double drop_sum = 0.0;
    unsigned drop_n = 0;
    for (std::size_t m = 0; m < mechs.size(); ++m) {
        if (mechs[m] == "Base")
            continue;
        const double sc = m_const.avgSpeedup(m);
        const double s7 = m_s70.avgSpeedup(m);
        const double s17 = m_s170.avgSpeedup(m);
        double drop = 0.0;
        if (sc > 1.0) {
            drop = 100.0 * ((sc - 1.0) - (s17 - 1.0)) / (sc - 1.0);
            drop_sum += drop;
            ++drop_n;
        }
        t.row({mechs[m], Table::num(sc, 4), Table::num(s7, 4),
               Table::num(s17, 4), Table::num(drop, 1)});
    }
    t.print(std::cout);
    if (drop_n)
        std::cout << "\nAverage speedup-gain reduction const-70 -> "
                  << "SDRAM: "
                  << Table::num(drop_sum / drop_n, 1)
                  << "% (paper: ~58%)\n";

    printRanks("Rank: const-70 vs sdram-170", mechs,
               {{"const-70", rankMechanisms(m_const)},
                {"sdram-170", rankMechanisms(m_s170)}});

    // Per-benchmark DRAM latency spread under the baseline.
    const std::size_t base_m = m_s170.mechIndex("Base");
    Table lat("Average SDRAM latency per benchmark (baseline cache)");
    lat.header({"benchmark", "avg latency (cpu cycles)"});
    for (std::size_t b = 0; b < benchs.size(); ++b)
        lat.row({benchs[b],
                 Table::num(
                     m_s170.outputs[base_m][b].stat("dram.latency"),
                     1)});
    lat.print(std::cout);

    // The lucas/GHB case study.
    for (const std::size_t b : indicesOf(m_s170, {"lucas"})) {
        const std::size_t ghb = m_s170.mechIndex("GHB");
        std::cout << "\nlucas case study: GHB speedup const-70 = "
                  << Table::num(m_const.speedup(ghb, b), 3)
                  << ", sdram-170 = "
                  << Table::num(m_s170.speedup(ghb, b), 3)
                  << " (paper: 1.12 -> 0.76)\n";
    }
}

/**
 * Figure 9 — Effect of cache model accuracy (finite vs infinite
 * MSHR).
 *
 * Paper claims: the miss address file size has a limited but
 * sometimes peculiar effect — several mechanisms perform *better*
 * with a finite MSHR (TCP loses to TK only with the finite one,
 * because a full MSHR stalls the cache, leaving the bus idle for the
 * L1-side TK to use), and it can change the ranking.
 */
void
fig09(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 9: finite vs infinite MSHR",
        "an idealized (infinite) miss address file shifts speedups "
        "and can invert rankings (TCP vs TK)");

    // Table 1 default: 8 MSHRs x 4 reads.
    const MatrixResult &m_fin = p.defaultMatrix();
    const MatrixResult m_inf =
        p.matrix("infinite_mshr_matrix", {{"hier.finite_mshr", "0"}});
    const auto &mechs = m_fin.mechanisms;

    Table t("Average speedup: finite vs infinite MSHR");
    t.header({"mechanism", "finite", "infinite", "delta %"});
    for (std::size_t m = 0; m < mechs.size(); ++m) {
        if (mechs[m] == "Base")
            continue;
        const double f = m_fin.avgSpeedup(m);
        const double i = m_inf.avgSpeedup(m);
        t.row({mechs[m], Table::num(f, 4), Table::num(i, 4),
               Table::num(100.0 * (f - i) / i, 2)});
    }
    t.print(std::cout);

    const auto rank_f = rankMechanisms(m_fin);
    const auto rank_i = rankMechanisms(m_inf);
    printRanks("Rank: finite vs infinite MSHR", mechs,
               {{"finite", rank_f}, {"infinite", rank_i}});

    std::cout << "\nPaper focus: TCP outperforms TK with an infinite "
                 "MSHR but not with a finite one. Here: TK rank "
              << rankOf(rank_f, "TK") << " vs TCP rank "
              << rankOf(rank_f, "TCP") << " (finite); TK "
              << rankOf(rank_i, "TK") << " vs TCP "
              << rankOf(rank_i, "TCP") << " (infinite).\n";
}

/**
 * Figure 10 — Effect of second-guessing undocumented choices:
 * TCP's prefetch request buffer, 1 entry vs 128 entries.
 *
 * Paper claims: the TCP article never specifies how prefetch
 * requests are buffered. The choice is a trade-off: with 1 entry
 * most prefetches are discarded, with 128 pending prefetches seize
 * the bus and delay demand misses. Differences are tiny on crafty
 * and eon and dramatic on lucas, mgrid and art; lucas *degrades*
 * with the large buffer.
 */
void
fig10(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 10: TCP prefetch buffer second-guessing",
        "1-entry vs 128-entry prefetch buffers swing individual "
        "benchmarks dramatically (lucas, mgrid, art) and leave "
        "others untouched (crafty, eon)");

    printVersus("TCP speedup per prefetch buffer size",
                p.versus("fig10_tcp_buffer", {}, {"Base", "TCP"},
                         "mech.tcp_buffer", "1", "128"),
                "TCP", "buffer=1", "buffer=128", false);

    std::cout << "\nPaper: the authors confirmed a buffer existed; "
                 "its size was chosen (128) by matching the article's "
                 "average performance.\n";
}

/**
 * Figure 11 — Effect of trace selection on ranking.
 *
 * Paper claims: "skip 1 B, simulate 2 B" traces and 500 M SimPoint
 * traces disagree significantly; most mechanisms look better on the
 * arbitrary traces, with TP the notable exception — so even 2 B-
 * instruction traces are not a sufficient precaution.
 *
 * Here the same experiment runs at 1:250 scale: SimPoint windows vs
 * "skip 3 M, simulate 6 M" arbitrary windows.
 */
void
fig11(Paper &p)
{
    printExperimentBanner(
        std::cout, "Figure 11: trace selection",
        "SimPoint vs arbitrary skip/simulate windows shift average "
        "speedups and the ranking");

    const MatrixResult &m_sp = p.defaultMatrix();
    const MatrixResult m_arb =
        p.matrix("arbitrary_matrix", {{"window.selection", "arbitrary"}});
    const auto &mechs = m_sp.mechanisms;

    Table t("Average speedup: SimPoint vs arbitrary trace");
    t.header({"mechanism", "simpoint", "arbitrary", "delta %"});
    for (std::size_t m = 0; m < mechs.size(); ++m) {
        if (mechs[m] == "Base")
            continue;
        const double s = m_sp.avgSpeedup(m);
        const double a = m_arb.avgSpeedup(m);
        t.row({mechs[m], Table::num(s, 4), Table::num(a, 4),
               Table::num(100.0 * (a - s) / s, 2)});
    }
    t.print(std::cout);

    printRanks("Rank per trace selection", mechs,
               {{"simpoint", rankMechanisms(m_sp)},
                {"arbitrary", rankMechanisms(m_arb)}});

    std::cout << "\nPaper: trace selection materially affects research "
                 "decisions; arbitrary windows flattered most "
                 "mechanisms except TP.\n";
}

/** One figure or table of the paper. */
struct Figure
{
    const char *id;
    void (*run)(Paper &);
};

/** Paper order: validation (Section 2), the comparison (Section 3),
 *  then the methodology studies (Section 4). */
const Figure figures[] = {
    {"fig01", fig01},     {"fig02", fig02},     {"fig03", fig03},
    {"table02", table02}, {"fig04", fig04},     {"fig05", fig05},
    {"fig06", fig06},     {"fig07", fig07},     {"table06", table06},
    {"table07", table07}, {"fig08", fig08},     {"fig09", fig09},
    {"fig10", fig10},     {"fig11", fig11},
};

} // namespace

int
main(int argc, char **argv)
{
    std::string ids;
    for (const Figure &f : figures)
        ids += std::string(ids.empty() ? "" : " ") + f.id;

    std::string store_path = "bench_cache/results.microlib";
    EngineOptions opts;
    std::vector<const Figure *> chosen;
    OptionTable table("microlib_paper", "[options] [FIGURE...]",
                      "Figures, in the paper order they run in without "
                      "a FIGURE:\n  " +
                          ids + "\n");
    table.add(shared_flags::store, store_path)
        .add(shared_flags::verbose, opts.verbose)
        .operands([&chosen, &ids](const std::string &id) -> std::string {
            for (const Figure &f : figures)
                if (id == f.id) {
                    chosen.push_back(&f);
                    return {};
                }
            return "unknown figure '" + id + "' (one of: " + ids + ")";
        });
    if (const auto status = table.parse(argc, argv))
        return *status;
    if (chosen.empty())
        for (const Figure &f : figures)
            chosen.push_back(&f);

    ResultStore store(store_path);
    opts.store = &store;
    ExperimentEngine engine(opts);
    Paper paper{engine};
    for (const Figure *f : chosen) {
        f->run(paper);
        // Later figures re-materialize what they need; what earlier
        // ones shared lives on in the store and the default matrix.
        // malloc keeps freed trace buffers resident unless trimmed,
        // and the next figure's traces would stack on top of them.
        engine.cache().clear();
        malloc_trim(0);
    }
    return exit_ok;
}

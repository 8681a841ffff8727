/**
 * @file
 * microlib_cliff: search-driven sensitivity studies from the CLI.
 *
 * Where microlib_sweep enumerates a grid, microlib_cliff *searches*
 * it: given a `.sweep` spec and two mechanisms, it bisects along a
 * declared numeric axis (or every searchable axis with --all-axes)
 * to the tightest adjacent pair of configurations where the two
 * mechanisms' speedup ranking flips, and emits each cliff as a
 * minimal flip-witness `.sweep` file plus a JSON summary
 * (docs/CLIFF_FINDER.md).
 *
 * Every probe is an ordinary single-variant sweep driven through the
 * same engine/store/backend stack as microlib_sweep, so the familiar
 * flags compose: --store dedupes probes by fingerprint (a re-run
 * against a warm store executes zero tasks and reproduces the same
 * witnesses byte-for-byte — CI diffs exactly that), and --backend
 * process runs each probe under the fault supervisor, so a crashing
 * probe quarantines its poison task and is reported FAULTED without
 * killing the search of the other axes.
 *
 *   microlib_cliff --spec examples/cliff.sweep --mechanisms SP,GHB \
 *       --all-axes --store cliff.store --witness-dir witness --report
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cliff_finder.hh"
#include "core/process_shard_backend.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/sweep_spec.hh"
#include "sim/options.hh"

using namespace microlib;

namespace
{

struct CliffArgs
{
    std::string spec_path;
    std::string mech_a, mech_b;
    std::vector<std::string> axes; // --axis, repeatable
    bool all_axes = false;
    std::string store_path;
    std::optional<std::string> report; // "" or "-" = stdout
    std::string backend = "thread";
    CliffFinderOptions finder;   // --witness-dir, --verbose
    EngineOptions engine;        // --threads, --progress, --trace-dir
    ProcessShardOptions process; // --shards and supervision
};

} // namespace

int
main(int argc, char **argv)
{
    CliffArgs args;
    SupervisionPolicy &supervision = args.process.supervision;
    OptionTable table("microlib_cliff",
                      "--spec FILE --mechanisms A,B (--axis KEY | "
                      "--all-axes) [options]",
                      "Exit status: 0 clean, 1 search failed, 2 usage "
                      "error, 3 an axis FAULTED");
    table.section("Search description:")
        .add("--spec", "FILE",
             "base .sweep spec; each declared axis's extreme values are "
             "its search endpoints",
             args.spec_path)
        .add({"--mechanisms", ValueSyntax::Required, "A,B",
              "the mechanism pair whose ranking flip to bisect to",
              [&args](const std::string &v) -> std::string {
                  const auto pair = splitList(v);
                  if (pair.size() != 2)
                      return "wants exactly A,B";
                  args.mech_a = pair[0];
                  args.mech_b = pair[1];
                  return {};
              }})
        .add({"--axis", ValueSyntax::Required, "KEY",
              "search this declared axis (repeatable)",
              [&args](const std::string &v) {
                  args.axes.push_back(v);
                  return std::string();
              }})
        .add("--all-axes", "", "search every searchable declared axis",
             args.all_axes)
        .section("Artifacts:")
        .add("--witness-dir", "DIR",
             "write per-axis flip-witness .sweep and .json files into "
             "DIR",
             args.finder.witness_dir)
        .add(shared_flags::report, args.report)
        .section("Execution (as in microlib_sweep):")
        .add(shared_flags::store, args.store_path)
        .add(OptionRow::choice("--backend", {"thread", "process"},
                               "process: run each probe over forked "
                               "shard workers under the supervisor",
                               args.backend))
        .add(shared_flags::shards, args.process.shards)
        .add(shared_flags::heartbeat_timeout,
             supervision.heartbeat_timeout)
        .add(shared_flags::retries, supervision.max_worker_retries)
        .add(shared_flags::strikes, supervision.quarantine_strikes)
        .add(shared_flags::threads, args.engine.threads)
        .add(shared_flags::progress, args.engine.progress_path)
        .add(shared_flags::trace_dir, args.engine.trace_dir)
        .add(shared_flags::verbose, args.finder.verbose);
    if (const auto status = table.parse(argc, argv))
        return *status;

    if (args.spec_path.empty() || args.mech_a.empty()) {
        std::fprintf(stderr,
                     "--spec and --mechanisms are required\n");
        return 2;
    }
    if (args.axes.empty() && !args.all_axes) {
        std::fprintf(stderr, "pick --axis KEY or --all-axes\n");
        return 2;
    }
    const bool use_process_backend = args.backend == "process";
    if (use_process_backend && args.store_path.empty()) {
        std::fprintf(stderr, "--backend process needs --store\n");
        return 2;
    }

    SweepSpec spec;
    std::string error;
    if (!SweepSpec::load(args.spec_path, spec, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    const auto &mechs = spec.mechanisms();
    for (const auto &m : {args.mech_a, args.mech_b}) {
        if (std::find(mechs.begin(), mechs.end(), m) == mechs.end() &&
            m != "Base")
            std::fprintf(stderr,
                         "note: mechanism %s is not in the spec's "
                         "mech line (probes add it)\n",
                         m.c_str());
    }

    std::unique_ptr<ResultStore> store;
    if (!args.store_path.empty())
        store = std::make_unique<ResultStore>(args.store_path);

    EngineOptions opts = args.engine;
    opts.store = store.get();

    args.process.threads_per_shard = opts.threads;
    ProcessShardBackend process_backend(args.process);
    if (use_process_backend) {
        opts.backend = &process_backend;
        opts.threads = 1; // the parent only forks, waits and merges
    }

    ExperimentEngine engine(opts);
    CliffFinder finder(engine, spec, args.finder);

    std::vector<std::string> axes = args.axes;
    if (args.all_axes) {
        axes = finder.searchableAxes();
        // Say which declared axes the search skips and why — a
        // silently missing row reads as "no cliff" when the axis was
        // never searched at all.
        for (const auto &a : spec.axes()) {
            std::string why;
            if (!finder.searchable(a.key, &why))
                std::fprintf(stderr, "skipping %s\n", why.c_str());
        }
        if (axes.empty()) {
            std::fprintf(stderr,
                         "no searchable axes in %s\n",
                         args.spec_path.c_str());
            return 2;
        }
    } else {
        for (const auto &key : axes) {
            if (!finder.searchable(key, &error)) {
                std::fprintf(stderr, "%s\n", error.c_str());
                return 2;
            }
        }
    }

    std::vector<CliffResult> results;
    try {
        for (const auto &key : axes)
            results.push_back(
                finder.find(args.mech_a, args.mech_b, key));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "cliff search failed: %s\n", e.what());
        return 1;
    }

    bool any_fault = false;
    std::size_t executed = 0, resumed = 0;
    for (const auto &r : results) {
        executed += r.executed;
        resumed += r.resumed;
        any_fault |= r.status == CliffStatus::Faulted;
        const std::string lo =
            r.lo.evaluated ? std::to_string(r.lo.value) : "-";
        const std::string hi =
            r.hi.evaluated ? std::to_string(r.hi.value) : "-";
        std::printf("%s: %s %s..%s (%zu probe(s), executed %zu, "
                    "resumed %zu)%s\n",
                    r.axis.c_str(), cliffStatusName(r.status),
                    lo.c_str(), hi.c_str(), r.probes.size(),
                    r.executed, r.resumed,
                    r.witness_path.empty()
                        ? ""
                        : (" witness " + r.witness_path).c_str());
    }
    std::printf("cliff search %s vs %s: %zu axis/axes, executed %zu, "
                "resumed %zu\n",
                args.mech_a.c_str(), args.mech_b.c_str(),
                results.size(), executed, resumed);

    if (args.report && !emitReport(*args.report, [&results](std::FILE *f) {
            std::fputs(CliffFinder::report(results).str().c_str(), f);
        }))
        return 1;
    // Mirror microlib_sweep's status contract: 3 = completed but at
    // least one axis FAULTED (a poison task was quarantined), so
    // scripts never mistake a partial report for a clean one.
    return any_fault ? 3 : 0;
}

/**
 * @file
 * microlib_sweep: the sweep driver cluster launchers call.
 *
 * A sweep is described declaratively by a SweepSpec — benchmarks x
 * mechanisms x config variants expanded from declared axes — built
 * either from the flags below or parsed from a `.sweep` file
 * (--spec; see docs/SWEEP_SPEC.md). The driver turns the spec into a
 * deterministic TaskPlan and either prints it (--plan / --print-spec)
 * or runs it — whole, as one shard (--shard i/N), or fanned out over
 * forked shard workers (--backend process) — and can merge
 * (--merge) and compact (--compact) per-shard result stores. Because
 * every process that parses the same spec builds the same plan,
 * disjoint shards can run on separate hosts against separate stores
 * and be combined into a result byte-identical to a single-process
 * run. A rerun against an existing store resumes: only missing
 * (benchmark, mechanism, variant) tasks execute (a killed shard picks
 * up exactly where it died). See docs/SHARDING.md for the
 * walkthrough; `--help` lists every flag.
 *
 * The same binary is also the client and the worker of the sweep
 * service (docs/SWEEP_SERVICE.md): `--backend service --service ADDR`
 * submits the sweep to a microlib_sweepd daemon and fetches the
 * deduplicated results; `--worker ADDR` turns the process into a
 * pull-based worker draining that daemon's queue.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/exit_codes.hh"
#include "core/process_shard_backend.hh"
#include "core/registry.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/service_backend.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"
#include "service/worker.hh"
#include "sim/fingerprint.hh"
#include "sim/options.hh"
#include "trace/spec_suite.hh"
#include "trace/trace_arena.hh"

using namespace microlib;

namespace
{

struct SweepArgs
{
    std::string spec_path; // --spec FILE; empty = build from flags
    std::string benchmarks = "swim,gzip,mcf,crafty"; // or "all"
    std::string mechanisms = "all";                  // Base + 12
    std::uint64_t trace_length = 500'000;
    std::uint64_t interval = 0; // 0 = trace_length
    bool arbitrary = false;
    std::uint64_t arb_skip = 0;
    std::uint64_t arb_length = 0;
    std::vector<std::pair<std::string, std::vector<std::string>>> axes;
    std::string store_path;
    std::optional<std::string> report; // "" or "-" = stdout
    std::size_t trace_budget_mb = 0;
    bool prewarm_traces = false; // materialize arena, skip simulation
    std::string backend = "thread";
    std::string service_addr; // --service ADDR (daemon address)
    WorkerOptions worker;     // --worker ADDR, --name NAME
    bool print_plan = false;
    bool print_spec = false;
    bool do_compact = false;
    std::vector<std::string> merge_inputs;
    EngineOptions engine;        // --threads, --shard, --progress, ...
    ProcessShardOptions process; // --shards and supervision
};

/** The sweep's flags, writing into @p args. */
OptionTable
sweepOptions(SweepArgs &args)
{
    SupervisionPolicy &supervision = args.process.supervision;
    OptionTable table(
        "microlib_sweep", "[options] [--merge STORE...]",
        "Exit status: 0 clean, 1 sweep failed, 2 usage error,\n"
        "3 completed with quarantined task(s), 4 infrastructure\n"
        "failure (daemon unreachable / died; retry is safe)");
    table.section("Sweep description (must be identical across shards):")
        .add("--spec", "FILE",
             "load a .sweep spec file (replaces the flags below; see "
             "docs/SWEEP_SPEC.md)",
             args.spec_path)
        .add("--bench", "LIST", "comma-separated benchmarks, or 'all'",
             args.benchmarks)
        .add("--mech", "LIST", "comma-separated mechanisms, or 'all'",
             args.mechanisms)
        .add("--trace", "N", "SimPoint window length", args.trace_length)
        .add("--interval", "N", "SimPoint interval; 0 = --trace",
             args.interval)
        .add({"--arbitrary", ValueSyntax::Required, "S,L",
              "arbitrary window: skip S, length L",
              [&args](const std::string &v) -> std::string {
                  const auto parts = splitList(v);
                  if (parts.size() != 2 ||
                      !parseCount(parts[0], args.arb_skip) ||
                      !parseCount(parts[1], args.arb_length))
                      return "wants S,L (unsigned integers)";
                  args.arbitrary = true;
                  return {};
              }})
        .add({"--axis", ValueSyntax::Required, "KEY=V1,V2",
              "sweep KEY over the values, one variant per combination "
              "(repeatable; composes with --spec)",
              [&args](const std::string &v) -> std::string {
                  const auto eq = v.find('=');
                  if (eq == std::string::npos || eq == 0 ||
                      eq + 1 >= v.size())
                      return "wants KEY=V1,V2,... got '" + v + "'";
                  args.axes.emplace_back(v.substr(0, eq),
                                         splitList(v.substr(eq + 1)));
                  return {};
              }})
        .section("Execution:")
        .add(shared_flags::store, args.store_path)
        .add({"--shard", ValueSyntax::Required, "I/N",
              "run only the tasks with index % N == I",
              [&args](const std::string &v) -> std::string {
                  return ShardSpec::parse(v, args.engine.shard)
                             ? ""
                             : "wants I/N with 0 <= I < N";
              }})
        .add(OptionRow::choice("--backend",
                               {"thread", "process", "service"},
                               "process: fork shard workers here; "
                               "service: submit to a microlib_sweepd "
                               "daemon (--service)",
                               args.backend))
        .add("--service", "ADDR",
             "sweep daemon address (unix:/path or host:port); implies "
             "--backend service",
             args.service_addr)
        .add(shared_flags::shards, args.process.shards)
        .add(shared_flags::heartbeat_timeout,
             supervision.heartbeat_timeout)
        .add(shared_flags::retries, supervision.max_worker_retries)
        .add(shared_flags::strikes, supervision.quarantine_strikes)
        .add(shared_flags::threads, args.engine.threads)
        .add("--trace-budget-mb", "N",
             "trace-cache byte budget; 0 = MICROLIB_TRACE_BUDGET_MB or "
             "unlimited",
             args.trace_budget_mb)
        .add(shared_flags::trace_dir, args.engine.trace_dir)
        .add(shared_flags::progress, args.engine.progress_path)
        .add(shared_flags::verbose, args.engine.verbose)
        .section("Modes:")
        .add("--worker", "ADDR",
             "be a pull worker for the daemon at ADDR, appending to "
             "--store (its own file)",
             args.worker.service)
        .add("--name", "NAME", "worker display name (default host:pid)",
             args.worker.name)
        .add("--plan", "", "print the fingerprinted task list and exit",
             args.print_plan)
        .add("--prewarm-traces", "",
             "materialize every trace window of the plan into "
             "--trace-dir and exit",
             args.prewarm_traces)
        .add("--print-spec", "",
             "print the canonical spec (stdout) and its hash (stderr), "
             "then exit",
             args.print_spec)
        .add("--merge", "STORE",
             "merge these store files into --store before anything "
             "else runs",
             args.merge_inputs)
        .add("--compact", "",
             "rewrite --store to one record per key (after --merge, "
             "before the run)",
             args.do_compact)
        .add(shared_flags::report, args.report);
    return table;
}

/**
 * The sweep description as a SweepSpec: parsed from --spec, or built
 * from the description flags @p table parsed (which then mirror the
 * old two-vector CLI exactly). --axis declarations append in either
 * mode. Exits with the parse/validation error on a bad spec.
 */
SweepSpec
buildSpec(const SweepArgs &args, const OptionTable &table)
{
    SweepSpec spec;
    std::string error;
    if (!args.spec_path.empty()) {
        if (table.given("--bench") || table.given("--mech") ||
            table.given("--trace") || table.given("--interval") ||
            table.given("--arbitrary")) {
            std::fprintf(stderr,
                         "--spec replaces --bench/--mech/--trace/"
                         "--interval/--arbitrary; use --axis to "
                         "extend a spec file\n");
            std::exit(2);
        }
        if (!SweepSpec::load(args.spec_path, spec, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            std::exit(2);
        }
    } else {
        auto names = [](const std::string &list,
                        const std::vector<std::string> &all) {
            return list == "all" ? all : splitList(list);
        };
        spec.setBenchmarks(names(args.benchmarks, specBenchmarkNames()));
        const auto mechs = names(args.mechanisms, allMechanismNames());
        spec.setMechanisms(mechs.empty() ? allMechanismNames() : mechs);
        bool ok = true;
        if (args.arbitrary) {
            ok = ok &&
                 spec.addBase("window.selection", "arbitrary", &error);
            ok = ok && spec.addBase("window.skip",
                                    std::to_string(args.arb_skip),
                                    &error);
            ok = ok && spec.addBase("window.length",
                                    std::to_string(args.arb_length),
                                    &error);
        } else {
            const std::uint64_t interval =
                args.interval ? args.interval : args.trace_length;
            ok = ok &&
                 spec.addBase("window.trace_length",
                              std::to_string(args.trace_length),
                              &error);
            ok = ok && spec.addBase("window.interval",
                                    std::to_string(interval), &error);
        }
        if (!ok) {
            std::fprintf(stderr, "%s\n", error.c_str());
            std::exit(2);
        }
    }
    for (const auto &axis : args.axes) {
        if (!spec.addAxis(axis.first, axis.second, &error)) {
            std::fprintf(stderr, "--axis %s: %s\n", axis.first.c_str(),
                         error.c_str());
            std::exit(2);
        }
    }
    return spec;
}

/**
 * Deterministic sweep report: fixed-width, fixed-precision, no
 * timestamps or host names — so a sharded-and-merged sweep's report
 * can be `diff`ed byte-for-byte against a single-process run's. One
 * IPC matrix per config variant, plus the cross-variant sensitivity
 * table when the sweep has more than one.
 */
void
writeReport(std::FILE *out, const SweepResult &res)
{
    const std::size_t nv = res.matrices.size();
    for (std::size_t v = 0; v < nv; ++v) {
        const MatrixResult &m = res.matrices[v];
        std::fprintf(out,
                     "# microlib_sweep IPC matrix (%zu mechanism(s) "
                     "x %zu benchmark(s))%s%s\n",
                     m.mechanisms.size(), m.benchmarks.size(),
                     nv > 1 ? " variant " : "",
                     nv > 1 ? res.variants[v].c_str() : "");
        std::fprintf(out, "%-8s", "");
        for (const auto &b : m.benchmarks)
            std::fprintf(out, "%12s", b.c_str());
        std::fprintf(out, "\n");
        for (std::size_t mi = 0; mi < m.mechanisms.size(); ++mi) {
            std::fprintf(out, "%-8s", m.mechanisms[mi].c_str());
            for (std::size_t b = 0; b < m.benchmarks.size(); ++b) {
                // A quarantined cell holds no result; an explicit
                // FAULT marker beats a misleading 0.000000.
                if (m.faulted(mi, b))
                    std::fprintf(out, "%12s", "FAULT");
                else
                    std::fprintf(out, "%12.6f", m.ipc[mi][b]);
            }
            std::fprintf(out, "\n");
        }
    }
    if (nv > 1)
        std::fputs(sensitivityTable(res).str().c_str(), out);
}

} // namespace

int
main(int argc, char **argv)
{
    SweepArgs args;
    OptionTable table = sweepOptions(args);
    if (const auto status = table.parse(argc, argv))
        return *status;
    EngineOptions &opts = args.engine;
    opts.trace_budget_bytes = args.trace_budget_mb * 1024 * 1024;

    if (!args.worker.service.empty()) {
        // Worker mode: no spec of our own — the daemon hands us
        // canonical spec text with every lease.
        WorkerOptions &w = args.worker;
        w.store_path = args.store_path;
        w.threads = opts.threads;
        w.verbose = opts.verbose;
        w.trace_dir = opts.trace_dir;
        w.trace_budget_bytes = opts.trace_budget_bytes;
        return runWorkerLoop(w);
    }

    const bool use_process_backend = args.backend == "process";
    const bool use_service_backend =
        args.backend == "service" || !args.service_addr.empty();
    if (use_service_backend && args.service_addr.empty()) {
        std::fprintf(stderr, "--backend service needs --service "
                             "ADDR\n");
        return exit_usage;
    }
    if (use_service_backend && use_process_backend) {
        std::fprintf(stderr,
                     "--backend process and service conflict\n");
        return exit_usage;
    }

    const SweepSpec spec = buildSpec(args, table);

    if (args.print_spec) {
        // Canonical text to stdout (redirectable straight into a
        // .sweep file), the stable hash to stderr.
        std::fputs(spec.canonicalText().c_str(), stdout);
        std::fprintf(stderr, "spec hash: %s\n",
                     Fingerprint::hexOf(spec.hash()).c_str());
        return 0;
    }

    const TaskPlan plan(spec);

    if (args.print_plan) {
        for (std::size_t i = 0; i < plan.size(); ++i)
            std::printf("%s\n",
                        plan.describe(i, opts.shard).c_str());
        return 0;
    }

    if ((use_process_backend || !args.merge_inputs.empty() ||
         args.do_compact) &&
        args.store_path.empty()) {
        std::fprintf(stderr, "--backend process, --merge and "
                             "--compact need --store\n");
        return 2;
    }

    std::unique_ptr<ResultStore> store;
    if (!args.store_path.empty())
        store = std::make_unique<ResultStore>(args.store_path);

    if (!args.merge_inputs.empty()) {
        std::size_t merged = 0;
        for (const auto &input : args.merge_inputs)
            merged += store->merge(input);
        std::printf("merged %zu record(s) from %zu store(s) into %s "
                    "(%zu total)\n",
                    merged, args.merge_inputs.size(),
                    args.store_path.c_str(), store->size());
    }

    if (args.do_compact) {
        const std::size_t kept = store->compact();
        std::printf("compacted %s to %zu record(s)\n",
                    args.store_path.c_str(), kept);
    }

    opts.store = store.get();

    args.process.threads_per_shard = opts.threads;
    ProcessShardBackend process_backend(args.process);
    ServiceBackend service_backend(args.service_addr);
    if (use_process_backend) {
        opts.backend = &process_backend;
        // The parent only forks, waits and merges: a worker pool
        // would sit idle, and fork() from a single-threaded parent
        // sidesteps the multithreaded-fork hazards entirely.
        // --threads applies to each shard worker instead.
        opts.threads = 1;
    } else if (use_service_backend) {
        opts.backend = &service_backend;
        // Simulation happens on the daemon's workers; this process
        // only submits, polls and fetches.
        opts.threads = 1;
    }

    ExperimentEngine engine(opts);

    if (args.prewarm_traces) {
        // Materialize every unique trace window of the plan into the
        // arena and stop: one generation pass a later fleet of
        // shards, hosts or reruns starts warm from (zero src=gen).
        const auto arena = engine.cache().arena();
        if (!arena) {
            std::fprintf(stderr, "--prewarm-traces needs --trace-dir "
                                 "(or MICROLIB_TRACE_DIR)\n");
            return 2;
        }
        // One representative task per trace slot (slots deduplicate
        // benchmark x window across mechanisms and variants).
        std::vector<std::size_t> rep(plan.traceSlotCount(),
                                     plan.size());
        for (std::size_t i = 0; i < plan.size(); ++i) {
            const std::size_t slot = plan.traceSlot(i);
            if (rep[slot] == plan.size())
                rep[slot] = i;
        }
        std::size_t generated = 0, present = 0;
        for (std::size_t slot = 0; slot < rep.size(); ++slot) {
            const PlanTask &t = plan.task(rep[slot]);
            const std::string &key = plan.slotKey(slot);
            TraceCache::Future fut;
            if (engine.cache().claim(key, fut) !=
                TraceCache::Claim::Owner)
                continue; // duplicate key within this process
            TraceOrigin origin = TraceOrigin::Generated;
            try {
                ExperimentEngine::materializeInto(
                    engine.cache(), key, plan.benchmarks()[t.b],
                    plan.config(t.v), &origin);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "prewarm failed: %s\n",
                             e.what());
                return 1;
            }
            ++(origin == TraceOrigin::Mapped ? present : generated);
            // Release immediately: prewarm only needs the file on
            // disk, not a resident copy of every window at once.
            engine.cache().evict(key);
        }
        std::printf("prewarm %s: %zu window(s) generated, %zu "
                    "already present\n",
                    arena->dir().c_str(), generated, present);
        return 0;
    }

    SweepResult res;
    try {
        res = engine.runPlan(plan);
    } catch (const InfrastructureError &e) {
        // The machinery failed, not the experiment: daemon
        // unreachable, worker retry budget spent. Everything
        // finished so far is in a store; retrying against healthy
        // infrastructure resumes.
        std::fprintf(stderr, "sweep failed (infrastructure): %s\n",
                     e.what());
        return exit_infrastructure;
    } catch (const std::exception &e) {
        // A sweep the supervisor gave up on (retry budget spent, or
        // supervision disabled); the store keeps every finished run
        // for the next attempt's resume.
        std::fprintf(stderr, "sweep failed: %s\n", e.what());
        return exit_failure;
    }
    const RunCounters counts = engine.lastRun();
    std::printf("sweep %s: %zu task(s) over %zu variant(s): executed "
                "%zu, resumed %zu, skipped-by-shard %zu\n",
                opts.shard.whole()
                    ? (use_process_backend ? "(process shards)"
                                           : "(whole plan)")
                    : ("shard " + opts.shard.str()).c_str(),
                plan.size(), plan.variantCount(), counts.executed,
                counts.resumed, counts.skipped);
    if (counts.store_skipped)
        std::printf("store: skipped %zu unreadable record line(s)\n",
                    counts.store_skipped);
    for (const std::size_t q : counts.quarantined)
        std::printf("quarantined: %s\n",
                    plan.describe(q, opts.shard).c_str());

    if (args.report) {
        if (!opts.shard.whole())
            std::fprintf(stderr,
                         "warning: report of a single shard run — "
                         "slots of other shards are empty\n");
        if (!emitReport(*args.report, [&res](std::FILE *f) {
                writeReport(f, res);
            }))
            return 1;
    }
    // Distinct status for a sweep that completed only by quarantining
    // poison tasks: scripted callers must not mistake a FAULT-marked
    // report for a clean one (see core/exit_codes.hh).
    return counts.quarantined.empty() ? exit_ok : exit_quarantined;
}

/**
 * @file
 * Resumable sweep: run a (benchmark x mechanism) matrix backed by the
 * versioned result store.
 *
 * Run it once and every cell executes; kill it mid-sweep (Ctrl-C) and
 * run it again, and only the missing cells execute — completed runs
 * are read back from the store, bit-identical. Change any system
 * parameter and the old records go stale by fingerprint: they are
 * ignored, never silently reused. See docs/RESULT_STORE.md.
 *
 * Pass a shard spec as the second argument (e.g. `0/2`) to run only
 * that shard of the matrix — the remaining tasks are counted as
 * skipped-by-shard, left for the other shards (docs/SHARDING.md).
 *
 * Usage: resumable_sweep [store-path] [shard i/N]
 * Default store path: resumable_sweep.results
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/sweep_spec.hh"

using namespace microlib;

int
main(int argc, char **argv)
{
    const std::string path =
        argc > 1 ? argv[1] : "resumable_sweep.results";
    ShardSpec shard;
    if (argc > 2 && !ShardSpec::parse(argv[2], shard)) {
        std::fprintf(stderr, "bad shard spec '%s' (want i/N)\n",
                     argv[2]);
        return 2;
    }

    const std::vector<std::string> mechanisms = {"Base", "TP", "SP",
                                                 "VC", "GHB"};
    const std::vector<std::string> benchmarks = {"swim", "gzip", "mcf",
                                                 "crafty"};
    SweepSpec spec;
    std::string error;
    if (!spec.setMechanisms(mechanisms, &error) ||
        !spec.setBenchmarks(benchmarks, &error) ||
        !spec.addBase("window.trace_length", "500000", &error) ||
        !spec.addBase("window.interval", "250000", &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }

    ResultStore store(path);
    std::printf("result store: %s (%zu record(s) on disk)\n",
                path.c_str(), store.size());

    EngineOptions opts;
    opts.verbose = true; // watch runs complete (and persist)
    opts.store = &store;
    opts.shard = shard;
    ExperimentEngine engine(opts);

    const MatrixResult res = engine.run(spec).matrix(0);
    const RunCounters counts = engine.lastRun();
    // Resume accounting must stay truthful under sharding: every
    // task is either executed here, restored from the store, or
    // explicitly left to another shard — never silently dropped.
    std::printf("\nsweep done (shard %s): %zu run(s) resumed from "
                "the store, %zu executed now, %zu skipped for other "
                "shards\n",
                shard.str().c_str(), counts.resumed, counts.executed,
                counts.skipped);

    std::printf("\n%-8s", "");
    for (const auto &b : benchmarks)
        std::printf("%10s", b.c_str());
    std::printf("\n");
    for (std::size_t m = 0; m < mechanisms.size(); ++m) {
        std::printf("%-8s", mechanisms[m].c_str());
        for (std::size_t b = 0; b < benchmarks.size(); ++b)
            std::printf("%10.4f", res.ipc[m][b]);
        std::printf("\n");
    }
    std::printf("\nIPC matrix over %u worker(s); rerun me — nothing "
                "above will re-execute.\n",
                engine.threads());
    return 0;
}

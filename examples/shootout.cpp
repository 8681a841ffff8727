/**
 * @file
 * Mechanism shootout: the paper's Figure 4 comparison on a chosen
 * subset of benchmarks, as a compact example of the experiment
 * engine's run-matrix API.
 *
 * Usage: shootout [bench1 bench2 ...]
 * Default: one memory-bound FP, one pointer chaser, one cache-
 * resident INT — a miniature of the suite's diversity.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/ranking.hh"
#include "core/scheduler.hh"
#include "core/sweep_spec.hh"

using namespace microlib;

int
main(int argc, char **argv)
{
    std::vector<std::string> benchmarks;
    for (int i = 1; i < argc; ++i)
        benchmarks.push_back(argv[i]);
    if (benchmarks.empty())
        benchmarks = {"swim", "mcf", "crafty"};

    // No settings: the Table 1 baseline on SimPoint windows.
    SweepSpec spec;
    std::string error;
    if (!spec.setBenchmarks(benchmarks, &error) ||
        !spec.setMechanisms(allMechanismNames(), &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    const RunConfig cfg = spec.resolve(spec.variants().front());
    ExperimentEngine engine;
    std::printf("Shootout over:");
    for (const auto &b : benchmarks)
        std::printf(" %s", b.c_str());
    std::printf("\n(13 mechanisms x %zu benchmarks; SimPoint windows "
                "of %llu instructions; %u workers)\n\n",
                benchmarks.size(),
                static_cast<unsigned long long>(
                    cfg.scale.simpoint_trace),
                engine.threads());

    const MatrixResult matrix = engine.run(spec).matrix(0);

    std::printf("%-8s", "mech");
    for (const auto &b : matrix.benchmarks)
        std::printf(" %9s", b.c_str());
    std::printf(" %9s\n", "avg");
    for (std::size_t m = 0; m < matrix.mechanisms.size(); ++m) {
        if (matrix.mechanisms[m] == "Base")
            continue;
        std::printf("%-8s", matrix.mechanisms[m].c_str());
        for (std::size_t b = 0; b < matrix.benchmarks.size(); ++b)
            std::printf(" %9.3f", matrix.speedup(m, b));
        std::printf(" %9.3f\n", matrix.avgSpeedup(m));
    }

    const auto ranking = rankMechanisms(matrix);
    std::printf("\nwinner on this selection: %s (avg speedup %.3f)\n",
                ranking.front().mechanism.c_str(),
                ranking.front().avg_speedup);
    std::printf("Try different selections — Table 6 of the paper "
                "shows how far cherry-picking can go.\n");
    return 0;
}

/**
 * @file
 * Sensitivity sweep: one declarative SweepSpec, many configurations.
 *
 * The paper's core argument is that mechanism comparisons depend on
 * the system configuration they run under (Figures 6-8): a prefetcher
 * that wins under a 1 MB L2 can lose under a 256 kB one. This example
 * declares that whole study as data — benchmarks x mechanisms x an
 * L2-size axis — runs it through the engine once, and prints the
 * per-variant IPC matrices plus the cross-variant sensitivity table.
 *
 * Pass a .sweep file to run any other study without recompiling:
 *
 *   sensitivity_sweep examples/sensitivity.sweep
 *
 * See docs/SWEEP_SPEC.md for the format and the axis registry.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "core/scheduler.hh"
#include "core/sweep_spec.hh"
#include "sim/fingerprint.hh"

using namespace microlib;

int
main(int argc, char **argv)
{
    SweepSpec spec;
    std::string error;
    if (argc > 1) {
        if (!SweepSpec::load(argv[1], spec, &error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
    } else {
        // The same study, declared programmatically.
        bool ok = spec.setBenchmarks({"pchase", "swim", "gzip"}, &error) &&
                  spec.setMechanisms({"Base", "TP", "GHB"}, &error) &&
                  spec.addBase("window.trace_length", "100000", &error) &&
                  spec.addBase("window.interval", "100000", &error) &&
                  spec.addAxis("hier.l2.size", {"256k", "1M"}, &error);
        if (!ok) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 2;
        }
    }

    std::printf("spec %s (%zu variant(s)):\n%s\n",
                Fingerprint::hexOf(spec.hash()).c_str(),
                spec.variantCount(), spec.canonicalText().c_str());

    ExperimentEngine engine;
    const SweepResult res = engine.run(spec);

    for (std::size_t v = 0; v < res.matrices.size(); ++v) {
        const MatrixResult &m = res.matrices[v];
        std::printf("variant %s:\n", res.variants[v].c_str());
        for (std::size_t mi = 0; mi < m.mechanisms.size(); ++mi) {
            std::printf("  %-6s", m.mechanisms[mi].c_str());
            for (std::size_t b = 0; b < m.benchmarks.size(); ++b)
                std::printf(" %s=%.4f", m.benchmarks[b].c_str(),
                            m.ipc[mi][b]);
            std::printf("\n");
        }
    }
    sensitivityTable(res).print(std::cout);
    return 0;
}

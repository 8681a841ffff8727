/**
 * @file
 * Memory-model study: what the SDRAM model adds over a constant
 * latency (the paper's Section 3.3 in miniature, single benchmark).
 *
 * Prints the DRAM-internal statistics — row hits/conflicts, queue
 * stalls, average latency — under the Table 1 SDRAM for a
 * row-friendly benchmark (swim) and a row-hostile one (lucas), then
 * shows how the same benchmark's IPC changes under the flat 70-cycle
 * SimpleScalar memory.
 */

#include <cstdio>
#include <string>

#include "core/scheduler.hh"

using namespace microlib;

namespace
{

void
study(ExperimentEngine &engine, const std::string &benchmark)
{
    RunConfig sdram;
    RunConfig flat;
    flat.system.hier.memory = MemoryModelKind::ConstantLatency;
    flat.system.hier.const_latency = 70;

    const auto trace = engine.trace(benchmark, sdram);
    const RunOutput rs = runOne(*trace, "Base", sdram);
    const RunOutput rf = runOne(*trace, "Base", flat);

    const double reads = rs.stat("dram.reads");
    const double hits = rs.stat("dram.row_hits");
    const double conf = rs.stat("dram.row_conflicts");

    std::printf("%s:\n", benchmark.c_str());
    std::printf("  IPC (SDRAM)        %8.4f\n", rs.ipc());
    std::printf("  IPC (flat 70)      %8.4f\n", rf.ipc());
    std::printf("  DRAM reads         %8.0f\n", reads);
    std::printf("  row hit rate       %7.1f%%\n",
                reads ? 100.0 * hits / (hits + conf +
                                        rs.stat("dram.row_empty"))
                      : 0.0);
    std::printf("  row conflicts      %8.0f\n", conf);
    std::printf("  queue stalls       %8.0f\n",
                rs.stat("dram.queue_stalls"));
    std::printf("  avg DRAM latency   %8.1f cycles\n\n",
                rs.stat("dram.latency"));
}

} // namespace

int
main(int argc, char **argv)
{
    std::printf("SDRAM vs constant-latency memory (cf. paper "
                "Figure 8)\n\n");
    EngineOptions opts;
    opts.threads = 1; // trace() runs on the caller; no pool needed
    ExperimentEngine engine(opts);
    if (argc > 1) {
        study(engine, argv[1]);
        return 0;
    }
    study(engine, "swim");  // streaming: row-buffer friendly
    study(engine, "lucas"); // bit-reversal: row-buffer hostile
    std::printf("The flat model treats both alike; the SDRAM model "
                "separates them —\nwhich is exactly why the paper "
                "finds rankings flip with model precision.\n");
    return 0;
}

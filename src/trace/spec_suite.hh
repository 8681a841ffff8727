/**
 * @file
 * The 26 SPEC CPU2000 stand-in workloads.
 *
 * The paper evaluates on SPEC CPU2000 compiled for Alpha; those
 * binaries and traces are not available here, so each benchmark is
 * replaced by a synthetic program whose *memory behaviour* matches the
 * published characteristics that the studied mechanisms key on:
 * footprint, stride structure, pointer chasing, phase behaviour,
 * value locality and code footprint. Each program's comment in
 * spec_suite.cc gives its rationale and the experiments that depend
 * on it (e.g. ammp's 88-byte next-pointer offset that defeats CDP,
 * gzip's Markov-friendly repetitiveness, lucas's row-conflicting
 * streams).
 */

#ifndef MICROLIB_TRACE_SPEC_SUITE_HH
#define MICROLIB_TRACE_SPEC_SUITE_HH

#include <string>
#include <vector>

#include "trace/generator.hh"

namespace microlib
{

/** All 26 benchmark names in the paper's Table 4 order. */
const std::vector<std::string> &specBenchmarkNames();

/** Program description for benchmark @p name — one of the 26 SPEC
 *  stand-ins or an extra workload (fatal if unknown). */
const SpecProgram &specProgram(const std::string &name);

/** All 26 programs, in Table 4 order. */
const std::vector<SpecProgram> &specSuite();

/**
 * Extra synthetic workloads beyond the paper's Table 4 — scenarios
 * the configuration-axis sweeps need that SPEC 2000 does not cover.
 * Currently: "pchase", a memory-latency-bound pointer chase (a
 * single serialized chain with zero memory-level parallelism for
 * most of each phase pass, then a four-chain phase that dials MLP
 * back in). Resolved by specProgram() like any other name, but kept
 * out of specBenchmarkNames() so the paper-figure harnesses still
 * run exactly the Table 4 suite.
 */
const std::vector<std::string> &extraBenchmarkNames();

/** True for the 14 floating-point benchmarks. */
bool isFpBenchmark(const std::string &name);

} // namespace microlib

#endif // MICROLIB_TRACE_SPEC_SUITE_HH

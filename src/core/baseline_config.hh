/**
 * @file
 * The baseline configuration — the paper's Table 1 — plus the trace
 * windows used by the experiments (scaled 1:250 against the paper's
 * windows; see TraceScale).
 */

#ifndef MICROLIB_CORE_BASELINE_CONFIG_HH
#define MICROLIB_CORE_BASELINE_CONFIG_HH

#include "cpu/ooo_core.hh"
#include "mem/hierarchy.hh"
#include "sim/config.hh"

namespace microlib
{

/** Full system configuration for one run. */
struct BaselineConfig
{
    CoreParams core;
    HierarchyParams hier;
};

/** Table 1: the scaled-up superscalar + SDRAM baseline. */
BaselineConfig makeBaseline();

/** Render the Table 1 parameter dump. */
ParamTable describeBaseline(const BaselineConfig &cfg);

/** Trace-window scaling for the experiments. */
struct TraceScale
{
    std::uint64_t simpoint_trace = 2'000'000;    ///< paper: 500 M
    std::uint64_t simpoint_interval = 500'000;
    unsigned simpoint_k = 4;
    std::uint64_t arbitrary_skip = 2'000'000;    ///< paper: 1 B
    std::uint64_t arbitrary_length = 4'000'000;  ///< paper: 2 B
};

/** Default scale; setting MICROLIB_QUICK=1 shrinks everything 4x for
 *  smoke runs. */
TraceScale makeTraceScale();

} // namespace microlib

#endif // MICROLIB_CORE_BASELINE_CONFIG_HH

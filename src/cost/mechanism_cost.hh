/**
 * @file
 * Per-mechanism cost and power ratios (paper Figure 5).
 *
 * Cost: mechanism structure area relative to the base cache
 * hierarchy area (L1D + L2 arrays). Power: total on-chip dynamic
 * energy with the mechanism relative to the baseline run's energy —
 * this is where cheap-but-chatty GHB loses and table-heavy
 * Markov/DBCP pay twice (area-driven access energy plus activity).
 */

#ifndef MICROLIB_COST_MECHANISM_COST_HH
#define MICROLIB_COST_MECHANISM_COST_HH

#include "core/experiment.hh"

namespace microlib
{

/** Cost/power summary for one mechanism. */
struct CostReport
{
    double mechanism_area_mm2 = 0.0;
    double base_area_mm2 = 0.0;
    double area_ratio = 0.0;   ///< mechanism / base cache area
    double power_ratio = 1.0;  ///< run energy / baseline run energy
};

/**
 * The structures @p mechanism adds under @p cfg, as its instance
 * bound to a hierarchy of @p cfg reports them (empty for "Base").
 * They depend on the configuration alone, not on a run, so one list
 * prices every run of the mechanism — fresh or read back from a
 * ResultStore.
 */
std::vector<SramSpec> mechanismHardware(const std::string &mechanism,
                                        const RunConfig &cfg);

/**
 * @param mech_run run of the mechanism (activity counters)
 * @param hardware the mechanism's structures (mechanismHardware())
 * @param base_run baseline run on the same trace (energy reference)
 * @param system system parameters (cache geometries)
 */
CostReport computeCost(const RunOutput &mech_run,
                       const std::vector<SramSpec> &hardware,
                       const RunOutput &base_run,
                       const BaselineConfig &system);

} // namespace microlib

#endif // MICROLIB_COST_MECHANISM_COST_HH

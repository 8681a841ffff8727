#include "cost/mechanism_cost.hh"

#include "cost/cacti.hh"
#include "cost/xcacti.hh"
#include "mem/hierarchy.hh"

namespace microlib
{

namespace
{

/** On-chip dynamic energy of a run whose mechanism adds
 *  @p hardware, nJ. */
double
runEnergyNj(const RunOutput &run, const std::vector<SramSpec> &hardware,
            const BaselineConfig &system)
{
    const auto &l1 = system.hier.l1d;
    const auto &l2 = system.hier.l2;

    const double e_l1 =
        cacheAccessEnergyNj(l1.size, l1.assoc, l1.ports);
    const double e_l2 =
        cacheAccessEnergyNj(l2.size, l2.assoc, l2.ports);

    double energy = 0.0;
    energy += e_l1 * (run.stat("l1d.demand_accesses") +
                      run.stat("l1d.side_fills"));
    energy += e_l2 * (run.stat("l2.demand_accesses") +
                      run.stat("l2.prefetch_accesses") +
                      run.stat("l2.writebacks"));

    // Mechanism structures: per-access energy x activity.
    if (!hardware.empty()) {
        double e_mech = 0.0;
        for (const auto &hw : hardware)
            e_mech += accessEnergyNj(hw);
        const std::string prefix = "mech." + run.mechanism;
        const double activity = run.stat(prefix + ".table_reads") +
                                run.stat(prefix + ".table_writes");
        energy += e_mech * activity;

        // Prefetch traffic costs additional L1/L2 array energy on
        // fills even when it does not show as demand accesses.
        energy += e_l2 * run.stat(prefix + ".prefetches_issued");
    }
    return energy;
}

} // namespace

std::vector<SramSpec>
mechanismHardware(const std::string &mechanism, const RunConfig &cfg)
{
    const auto mech = makeMechanism(mechanism, cfg.mech);
    if (!mech)
        return {};
    // Some structures are sized from the cache geometry.
    Hierarchy hier(cfg.system.hier, nullptr);
    mech->bind(hier);
    return mech->hardware();
}

CostReport
computeCost(const RunOutput &mech_run,
            const std::vector<SramSpec> &hardware,
            const RunOutput &base_run, const BaselineConfig &system)
{
    CostReport rep;

    const auto &l1 = system.hier.l1d;
    const auto &l2 = system.hier.l2;
    rep.base_area_mm2 =
        cacheAreaMm2(l1.size, l1.line, l1.assoc, l1.ports) +
        cacheAreaMm2(l2.size, l2.line, l2.assoc, l2.ports);
    rep.mechanism_area_mm2 = totalAreaMm2(hardware);
    rep.area_ratio = rep.mechanism_area_mm2 / rep.base_area_mm2;

    const double base_energy = runEnergyNj(base_run, {}, system);
    const double mech_energy = runEnergyNj(mech_run, hardware, system);
    rep.power_ratio =
        base_energy > 0.0 ? mech_energy / base_energy : 1.0;
    return rep;
}

} // namespace microlib

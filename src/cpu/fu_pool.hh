/**
 * @file
 * Functional unit pool (Table 1: 8 IntALU, 3 IntMult/Div, 6 FPALU,
 * 2 FPMult/Div, 4 Load/Store units).
 *
 * Units are modeled as next-free timestamps: issuing an instruction
 * acquires the earliest-free unit of its class at or after its ready
 * time. All units are pipelined with an issue-to-issue interval of
 * one cycle except multipliers (interval two), matching the
 * sim-outorder defaults the paper inherits.
 */

#ifndef MICROLIB_CPU_FU_POOL_HH
#define MICROLIB_CPU_FU_POOL_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "sim/types.hh"
#include "trace/record.hh"

namespace microlib
{

/** Functional unit configuration. */
struct FuPoolParams
{
    unsigned int_alu = 8;
    unsigned int_mult = 3;
    unsigned fp_alu = 6;
    unsigned fp_mult = 2;
    unsigned ls_units = 4;

    Cycle int_alu_latency = 1;
    Cycle int_mult_latency = 3;
    Cycle fp_alu_latency = 2;
    Cycle fp_mult_latency = 4;
    Cycle agen_latency = 1;     ///< address generation before cache
};

/** Timestamp-based functional unit pool. */
class FuPool
{
  public:
    /** Largest unit count of one class (Table 1's widest is 8). */
    static constexpr unsigned max_units = 8;

    explicit FuPool(const FuPoolParams &p);

    /** Reset all units to free-at-zero. */
    void reset();

    /**
     * Acquire a unit for @p op at or after @p ready.
     * @return issue cycle (>= ready).
     */
    Cycle
    acquire(OpClass op, Cycle ready)
    {
        const auto o = static_cast<std::size_t>(op);
        auto &units = _units[unit_class[o]];
        // Branch-free first-minimum over all max_units slots: slots
        // beyond the class's unit count hold `never` and lose.
        unsigned best = 0;
        Cycle best_free = units[0];
        for (unsigned u = 1; u < max_units; ++u) {
            const bool earlier = units[u] < best_free;
            best = earlier ? u : best;
            best_free = earlier ? units[u] : best_free;
        }
        const Cycle issue = std::max(ready, best_free);
        units[best] = issue + issue_interval[o];
        return issue;
    }

    /** Execution latency of @p op (cache time excluded for memory). */
    Cycle
    latency(OpClass op) const
    {
        return _latency[static_cast<std::size_t>(op)];
    }

    const FuPoolParams &params() const { return _p; }

  private:
    /** Unit classes: IntALU, IntMult, FpALU, FpMult, LS. */
    static constexpr std::size_t num_unit_classes = 5;

    /** OpClass -> unit class; branches use an IntALU, loads and
     *  stores share the LS units. */
    static constexpr std::array<std::uint8_t, num_op_classes> unit_class{
        0, 1, 2, 3, 4, 4, 0};

    /** OpClass -> issue-to-issue interval: multipliers accept a new op
     *  every other cycle; everything else is fully pipelined. */
    static constexpr std::array<Cycle, num_op_classes> issue_interval{
        1, 2, 1, 2, 1, 1, 1};

    static_assert(num_op_classes == 7 &&
                      static_cast<int>(OpClass::Branch) == 6,
                  "the OpClass tables above follow the enum's order");

    FuPoolParams _p;

    /** Next-free cycle per unit; unused slots hold `never`. */
    std::array<std::array<Cycle, max_units>, num_unit_classes> _units;

    /** OpClass -> execution latency, from the params. */
    std::array<Cycle, num_op_classes> _latency;
};

} // namespace microlib

#endif // MICROLIB_CPU_FU_POOL_HH

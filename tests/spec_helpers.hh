/**
 * @file
 * Test helpers: one-variant sweeps described by registry settings,
 * the only way a SweepSpec is configured (docs/SWEEP_SPEC.md).
 */

#ifndef MICROLIB_TESTS_SPEC_HELPERS_HH
#define MICROLIB_TESTS_SPEC_HELPERS_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sweep_spec.hh"

namespace microlib
{

/** Registry settings, applied in order. */
using Settings = std::vector<AxisSetting>;

/** @p mechanisms x @p benchmarks with @p settings as base settings;
 *  a name or setting the spec rejects fails the test. */
inline SweepSpec
specOf(const std::vector<std::string> &mechanisms,
       const std::vector<std::string> &benchmarks,
       const Settings &settings)
{
    SweepSpec spec;
    std::string error;
    EXPECT_TRUE(spec.setMechanisms(mechanisms, &error)) << error;
    EXPECT_TRUE(spec.setBenchmarks(benchmarks, &error)) << error;
    for (const AxisSetting &s : settings)
        EXPECT_TRUE(spec.addBase(s.key, s.value, &error)) << error;
    return spec;
}

/** The config @p settings resolve to. */
inline RunConfig
configOf(const Settings &settings)
{
    SweepSpec spec;
    std::string error;
    for (const AxisSetting &s : settings)
        EXPECT_TRUE(spec.addBase(s.key, s.value, &error)) << error;
    return spec.resolve(spec.variants().front());
}

} // namespace microlib

#endif // MICROLIB_TESTS_SPEC_HELPERS_HH

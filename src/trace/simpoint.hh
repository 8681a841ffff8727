/**
 * @file
 * SimPoint trace selection (Sherwood et al., ASPLOS 2002).
 *
 * k-means clustering of interval BBVs; the simulation point is the
 * interval closest to the centroid of the most populated cluster.
 * The paper simulates a 500 M-instruction trace starting at the first
 * SimPoint; this reproduction does the same at 1:250 scale.
 */

#ifndef MICROLIB_TRACE_SIMPOINT_HH
#define MICROLIB_TRACE_SIMPOINT_HH

#include <cstdint>
#include <vector>

#include "trace/bbv.hh"
#include "trace/generator.hh"

namespace microlib
{

/** Result of k-means over BBVs. */
struct KMeansResult
{
    std::vector<int> assignment;           ///< interval -> cluster
    std::vector<std::vector<float>> centroids;
    std::vector<std::uint64_t> cluster_sizes;
    double inertia = 0.0;                  ///< sum of squared distances
};

/**
 * Lloyd's k-means with deterministic farthest-point seeding.
 *
 * @param vectors input points
 * @param k cluster count (clamped to vectors.size())
 * @param max_iters iteration cap
 * @param seed RNG seed for the seeding step
 */
KMeansResult kMeans(const std::vector<std::vector<float>> &vectors,
                    unsigned k, unsigned max_iters = 50,
                    std::uint64_t seed = 42);

/** SimPoint choice for one benchmark. */
struct SimPointChoice
{
    std::uint64_t start_instruction = 0;   ///< where the trace begins
    std::uint64_t interval_index = 0;
    unsigned clusters = 0;
    double dominant_weight = 0.0;          ///< share of the chosen cluster
};

/**
 * Profile @p prog over its nominal length and select the SimPoint.
 *
 * @param prog benchmark
 * @param interval_length profiling interval (instructions)
 * @param k cluster count
 */
SimPointChoice findSimPoint(const SpecProgram &prog,
                            std::uint64_t interval_length,
                            unsigned k = 4);

/** The SimPoint of an already collected @p profile, as findSimPoint
 *  selects it from the profile it collects. */
SimPointChoice chooseSimPoint(const BbvProfile &profile,
                              unsigned k = 4);

} // namespace microlib

#endif // MICROLIB_TRACE_SIMPOINT_HH

#include "trace/simpoint.hh"

#include <algorithm>
#include <limits>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace microlib
{

KMeansResult
kMeans(const std::vector<std::vector<float>> &vectors, unsigned k,
       unsigned max_iters, std::uint64_t seed)
{
    KMeansResult res;
    const std::size_t n = vectors.size();
    if (n == 0)
        fatal("kMeans: no input vectors");
    k = static_cast<unsigned>(std::min<std::size_t>(k, n));

    // Farthest-point seeding: the first centroid is a point drawn
    // from an Rng seeded with @p seed (deterministic), each further
    // centroid is the point with maximal distance to its nearest
    // chosen centroid, tie-broken by index.
    Rng rng(seed);
    std::vector<std::size_t> centers;
    centers.push_back(rng.nextBounded(n));
    std::vector<double> best_dist(n, std::numeric_limits<double>::max());
    while (centers.size() < k) {
        for (std::size_t i = 0; i < n; ++i)
            best_dist[i] = std::min(
                best_dist[i], bbvDistance(vectors[i],
                                          vectors[centers.back()]));
        std::size_t far = 0;
        for (std::size_t i = 1; i < n; ++i)
            if (best_dist[i] > best_dist[far])
                far = i;
        centers.push_back(far);
    }
    for (auto c : centers)
        res.centroids.push_back(vectors[c]);

    res.assignment.assign(n, 0);
    for (unsigned iter = 0; iter < max_iters; ++iter) {
        bool changed = false;
        // Assignment step.
        for (std::size_t i = 0; i < n; ++i) {
            int best = 0;
            double bd = std::numeric_limits<double>::max();
            for (std::size_t c = 0; c < res.centroids.size(); ++c) {
                const double d = bbvDistance(vectors[i], res.centroids[c]);
                if (d < bd) {
                    bd = d;
                    best = static_cast<int>(c);
                }
            }
            if (res.assignment[i] != best) {
                res.assignment[i] = best;
                changed = true;
            }
        }
        // Update step.
        const std::size_t dims = vectors[0].size();
        std::vector<std::vector<double>> sums(
            res.centroids.size(), std::vector<double>(dims, 0.0));
        std::vector<std::uint64_t> counts(res.centroids.size(), 0);
        for (std::size_t i = 0; i < n; ++i) {
            ++counts[res.assignment[i]];
            for (std::size_t d = 0; d < dims; ++d)
                sums[res.assignment[i]][d] += vectors[i][d];
        }
        for (std::size_t c = 0; c < res.centroids.size(); ++c) {
            if (counts[c] == 0)
                continue; // empty cluster keeps its old centroid
            for (std::size_t d = 0; d < dims; ++d)
                res.centroids[c][d] =
                    static_cast<float>(sums[c][d] / counts[c]);
        }
        if (!changed)
            break;
    }

    res.cluster_sizes.assign(res.centroids.size(), 0);
    res.inertia = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        ++res.cluster_sizes[res.assignment[i]];
        const double d =
            bbvDistance(vectors[i], res.centroids[res.assignment[i]]);
        res.inertia += d * d;
    }
    return res;
}

SimPointChoice
findSimPoint(const SpecProgram &prog, std::uint64_t interval_length,
             unsigned k)
{
    return chooseSimPoint(
        collectBbv(prog, prog.nominal_length, interval_length), k);
}

SimPointChoice
chooseSimPoint(const BbvProfile &profile, unsigned k)
{
    const KMeansResult km = kMeans(profile.vectors, k);

    // Most populated cluster.
    std::size_t big = 0;
    for (std::size_t c = 1; c < km.cluster_sizes.size(); ++c)
        if (km.cluster_sizes[c] > km.cluster_sizes[big])
            big = c;

    // Interval closest to that cluster's centroid.
    std::size_t best_iv = 0;
    double bd = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < profile.vectors.size(); ++i) {
        if (km.assignment[i] != static_cast<int>(big))
            continue;
        const double d =
            bbvDistance(profile.vectors[i], km.centroids[big]);
        if (d < bd) {
            bd = d;
            best_iv = i;
        }
    }

    SimPointChoice choice;
    choice.interval_index = best_iv;
    choice.start_instruction = best_iv * profile.interval_length;
    choice.clusters = static_cast<unsigned>(km.centroids.size());
    choice.dominant_weight =
        static_cast<double>(km.cluster_sizes[big]) /
        static_cast<double>(profile.vectors.size());
    return choice;
}

} // namespace microlib

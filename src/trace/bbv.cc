#include "trace/bbv.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace microlib
{

BbvProfile
collectBbv(const SpecProgram &prog, std::uint64_t total_instructions,
           std::uint64_t interval_length)
{
    if (interval_length == 0 || total_instructions < interval_length)
        fatal("BBV profile needs at least one full interval");

    BbvProfile profile;
    profile.interval_length = interval_length;

    const std::uint64_t intervals = total_instructions / interval_length;
    std::vector<std::uint64_t> counts(bbv_dims);
    std::uint64_t left = interval_length; // of the current interval

    // One pass, fast-forwarded block by block: a block's instructions
    // are split across the interval boundaries they straddle.
    SpecGenerator gen(prog);
    gen.advance(intervals * interval_length,
                [&](std::uint16_t bb, std::uint64_t len) {
        while (len > 0) {
            const std::uint64_t run = std::min(len, left);
            counts[bb % bbv_dims] += run;
            len -= run;
            left -= run;
            if (left > 0)
                continue;
            std::vector<float> vec(bbv_dims);
            for (std::size_t d = 0; d < bbv_dims; ++d)
                vec[d] = static_cast<float>(counts[d]) /
                         static_cast<float>(interval_length);
            profile.vectors.push_back(std::move(vec));
            std::fill(counts.begin(), counts.end(), 0);
            left = interval_length;
        }
    });
    return profile;
}

double
bbvDistance(const std::vector<float> &a, const std::vector<float> &b)
{
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = static_cast<double>(a[i]) - b[i];
        sum += d * d;
    }
    return std::sqrt(sum);
}

} // namespace microlib

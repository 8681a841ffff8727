/**
 * @file
 * FVC — Frequent Value Cache (Zhang, Yang & Gupta 2000), at the L1.
 *
 * A small direct-mapped side cache that stores evicted lines whose
 * words all belong to a small set of frequent program values, in
 * compressed form (3-bit indexes into a 7-entry frequent value table
 * plus the "unknown" code). A miss that hits the FVC is served from
 * the side structure. This is the one mechanism that needs *data
 * values*, which is why the paper's SimpleScalar (address-only) runs
 * required the MicroLib value-accurate models — here, the functional
 * memory image.
 */

#ifndef MICROLIB_MECHANISMS_FREQUENT_VALUE_CACHE_HH
#define MICROLIB_MECHANISMS_FREQUENT_VALUE_CACHE_HH

#include "core/mechanism.hh"

namespace microlib
{

/** Frequent-value compressed side cache. */
class FrequentValueCache : public CacheMechanism
{
  public:
    struct Params
    {
        unsigned lines = 1024;  ///< Table 3
        unsigned values = 7;    ///< + unknown code
    };

    explicit FrequentValueCache(const MechanismConfig &cfg);

    FrequentValueCache(const MechanismConfig &cfg,
                       const Params &p);

    void bind(Hierarchy &hier) override;

    bool cacheMissProbe(CacheLevel lvl, Addr line, Cycle now,
                        Cycle &extra_latency) override;
    void cacheEvict(CacheLevel lvl, Addr line, bool dirty,
                    Cycle now) override;

    std::vector<SramSpec> hardware() const override;
    void describe(ParamTable &t) const override;

    /** True iff all the line's words compress (unit-test hook). */
    bool lineCompressible(Addr line) const;

    Counter compressible_evictions;
    Counter incompressible_evictions;

  private:
    Params _p;
    std::unique_ptr<LineBuffer> _buffer;
    /** The evicted line's words, reused on every eviction. */
    mutable std::vector<Word> _line_words;

    bool isFrequent(Word w) const;
};

} // namespace microlib

#endif // MICROLIB_MECHANISMS_FREQUENT_VALUE_CACHE_HH

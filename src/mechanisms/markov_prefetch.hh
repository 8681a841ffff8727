/**
 * @file
 * Markov — Markov Prefetcher (Joseph & Grunwald 1997), at the L1.
 *
 * Records the observed successors of each miss address (up to four
 * predictions per entry, Table 3) in a 1 MB prediction table; on a
 * miss, prefetches the recorded successors into a small prefetch
 * buffer probed in parallel with the L1. The paper highlights its
 * huge table cost (Figure 5) and its strongly benchmark-dependent
 * performance: best-in-class on gzip/ammp yet poor on average
 * (Table 6 discussion).
 */

#ifndef MICROLIB_MECHANISMS_MARKOV_PREFETCH_HH
#define MICROLIB_MECHANISMS_MARKOV_PREFETCH_HH

#include "core/mechanism.hh"

namespace microlib
{

/** First-order Markov miss-address prefetcher. */
class MarkovPrefetch : public CacheMechanism
{
  public:
    struct Params
    {
        unsigned table_entries = 65536; ///< ~1 MB with 4 predictions
        unsigned predictions = 4;       ///< Table 3; at most 4
        unsigned request_queue = 16;
        unsigned buffer_lines = 128;    ///< Table 3 prefetch buffer
    };

    explicit MarkovPrefetch(const MechanismConfig &cfg);

    MarkovPrefetch(const MechanismConfig &cfg,
                   const Params &p);

    void bind(Hierarchy &hier) override;

    void cacheAccess(CacheLevel lvl, const MemRequest &req, bool hit,
                     bool first_use) override;
    bool cacheMissProbe(CacheLevel lvl, Addr line, Cycle now,
                        Cycle &extra_latency) override;

    std::vector<SramSpec> hardware() const override;
    void describe(ParamTable &t) const override;

  private:
    Params _p;
    RequestQueue _queue;
    std::unique_ptr<LineBuffer> _buffer;
    /** One prediction-table entry in one place: its tag, and per
     *  successor slot a line id (addr >> 5) and an LRU stamp (0 =
     *  empty). 56 bytes with Table 3's four predictions. */
    static constexpr unsigned max_predictions = 4;
    struct Entry
    {
        Addr tag = invalid_addr;
        std::uint32_t succ[max_predictions] = {};
        std::uint64_t stamps[max_predictions] = {};
    };
    std::vector<Entry> _table;
    std::uint64_t _index_mask = 0; ///< table_entries - 1
    Addr _prev_miss = invalid_addr;
    std::uint64_t _tick = 0;

    /** The table entry @p line maps to. */
    Entry &entryFor(Addr line);
    void learn(Addr prev_line, Addr line);
    void predict(Addr line, Cycle now);
};

} // namespace microlib

#endif // MICROLIB_MECHANISMS_MARKOV_PREFETCH_HH

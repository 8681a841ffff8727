/**
 * @file
 * TK — Timekeeping prefetcher (Hu, Kaxiras & Martonosi 2002), at the
 * L1.
 *
 * Timekeeping observes per-line generation times: a line that has
 * been idle longer than a threshold (Table 3: 1023 cycles, counted in
 * coarse 512-cycle "refresh" quanta) is predicted dead; an address
 * correlation table (8 KB, 8-way) remembers which line historically
 * replaced it, and that successor is prefetched into a small buffer
 * ahead of the actual miss.
 *
 * Second-guess variant (Figure 2): the article leaves the counting
 * granularity ambiguous — the initial build used the raw threshold
 * without refresh quantization and only checked liveness on misses,
 * making prefetches later and rarer.
 */

#ifndef MICROLIB_MECHANISMS_TIMEKEEPING_HH
#define MICROLIB_MECHANISMS_TIMEKEEPING_HH

#include "core/mechanism.hh"

namespace microlib
{

/** Timekeeping dead-line prefetcher. */
class Timekeeping : public CacheMechanism
{
  public:
    struct Params
    {
        Cycle refresh = 512;       ///< Table 3: counting quantum
        Cycle threshold = 1023;    ///< Table 3: dead after this idle
        std::uint64_t corr_bytes = 8 * 1024; ///< Table 3: 8 KB
        unsigned corr_assoc = 8;
        unsigned request_queue = 128;
        unsigned buffer_lines = 1024; ///< dead L1 frames hold the lines
    };

    explicit Timekeeping(const MechanismConfig &cfg);

    Timekeeping(const MechanismConfig &cfg, const Params &p);

    void bind(Hierarchy &hier) override;

    void cacheAccess(CacheLevel lvl, const MemRequest &req, bool hit,
                     bool first_use) override;
    bool cacheMissProbe(CacheLevel lvl, Addr line, Cycle now,
                        Cycle &extra_latency) override;
    void cacheEvict(CacheLevel lvl, Addr line, bool dirty,
                    Cycle now) override;
    void cacheRefill(CacheLevel lvl, Addr line, AccessKind cause,
                     Cycle now) override;

    std::vector<SramSpec> hardware() const override;
    void describe(ParamTable &t) const override;

    /** Idle time quantization (unit-test hook). */
    Cycle quantize(Cycle idle) const;

  private:
    struct CorrEntry
    {
        std::uint64_t key = ~0ull;
        std::uint32_t successor = 0;
        std::uint64_t stamp = 0;
    };

    struct FrameState
    {
        Addr line = invalid_addr;
        Cycle last_access = 0;
    };

    Params _p;
    bool _fixed;
    RequestQueue _queue;
    std::unique_ptr<LineBuffer> _buffer;
    std::vector<CorrEntry> _corr;
    std::vector<FrameState> _frames;
    std::vector<Addr> _pending_evict; ///< per set: dying line
    std::uint64_t _tick = 0;

    // Indexing by shift and mask: the refresh quantum and the
    // correlation set count are checked to be powers of two, and the
    // cache's geometry checks make the L1's line, set and frame
    // counts powers of two.
    Cycle _refresh_mask = 0;          ///< ~(refresh - 1)
    std::uint64_t _corr_set_mask = 0; ///< correlation sets - 1
    unsigned _l1_line_shift = 0;
    std::uint64_t _l1_set_mask = 0;   ///< L1 sets - 1
    std::uint64_t _frame_mask = 0;    ///< L1 frames - 1
    unsigned _frames_per_set_shift = 0; ///< log2(L1 associativity)

    std::uint64_t lineIndex(Addr line) const
    {
        return line >> _l1_line_shift;
    }
    /** First way of @p line's correlation set. */
    CorrEntry *corrSet(Addr line);

    CorrEntry *findCorr(Addr line);
    void learn(Addr dead_line, Addr successor);
    void sweepSet(std::uint64_t set, Cycle now);
};

} // namespace microlib

#endif // MICROLIB_MECHANISMS_TIMEKEEPING_HH

/**
 * @file
 * DBCP — Dead-Block Correlating Prefetcher (Lai, Fide & Falsafi 2001),
 * at the L1.
 *
 * Each resident L1 line accumulates a *trace signature* — a hash of
 * the load/store PCs that touched it since its fill. When a line dies
 * (is evicted), the (address, death-signature) pair is correlated
 * with the address that replaced it. Later, when a resident line's
 * live signature reaches a learned death signature, the line is
 * predicted dead and the correlated successor is prefetched into a
 * small buffer.
 *
 * The paper uses DBCP as its reverse-engineering case study
 * (Section 2.2, Figure 3): the authors' first implementation was off
 * by 38% because of three documented mistakes. Both builds are
 * available here via MechanismConfig::second_guess:
 *
 *  - fixed: PC pre-hashing before signature update, full-size
 *    correlation table, confidence decrement on stale signatures;
 *  - initial: raw PC xor (aliasing), half-size table, no decrement.
 */

#ifndef MICROLIB_MECHANISMS_DBCP_HH
#define MICROLIB_MECHANISMS_DBCP_HH

#include "core/mechanism.hh"

namespace microlib
{

/** Dead-block correlating prefetcher. */
class Dbcp : public CacheMechanism
{
  public:
    struct Params
    {
        unsigned history_entries = 1024;  ///< Table 3: 1K (L1 frames)
        unsigned table_entries = 262144;  ///< ~2 MB, 8-way (Table 3)
        unsigned table_assoc = 8;
        unsigned request_queue = 128;
        unsigned buffer_lines = 1024; ///< dead L1 frames hold the lines
    };

    explicit Dbcp(const MechanismConfig &cfg);

    Dbcp(const MechanismConfig &cfg, const Params &p);

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

    /** Signature update step (unit-test hook). */
    std::uint32_t updateSignature(std::uint32_t sig, Addr pc) const;

  private:
    /** Keys per 64-byte host line: a set of up to 8 ways is probed
     *  in one line. */
    static constexpr unsigned keys_per_line = 8;
    struct alignas(64) KeyLine
    {
        std::uint64_t key[keys_per_line];
    };
    static constexpr std::uint64_t no_key = ~0ull;
    static constexpr std::size_t no_entry = ~std::size_t{0};

    /** Per-L1-frame live state. */
    struct FrameState
    {
        Addr line = invalid_addr;
        std::uint32_t signature = 0;
    };

    /** Eviction waiting for its replacement address. */
    struct PendingDeath
    {
        Addr line = invalid_addr;
        std::uint32_t signature = 0;
        bool valid = false;
    };

    Params _p;
    bool _fixed; ///< !second_guess
    unsigned _effective_entries;
    RequestQueue _queue;
    std::unique_ptr<LineBuffer> _buffer;

    /** The correlation table: entry e = set * table_assoc + way. Its
     *  key is key e of _keys (a set's keys share one host line), its
     *  successor line id (addr >> 5), 2-bit confidence and LRU stamp
     *  are _succ[e], _conf[e] and _stamps[e]. */
    std::vector<KeyLine> _keys;
    std::vector<std::uint64_t> _stamps;
    std::vector<std::uint32_t> _succ;
    std::vector<std::uint8_t> _conf;
    std::uint64_t _set_mask = 0;  ///< correlation sets - 1
    unsigned _assoc_shift = 0;    ///< log2(table_assoc)

    std::vector<FrameState> _frames;
    std::vector<PendingDeath> _pending; ///< per L1 set
    std::uint64_t _tick = 0;
    unsigned _l1_line_shift = 0;
    std::uint64_t _l1_set_mask = 0;
    std::uint64_t _frame_mask = 0;
    Addr _last_miss_pc = 0;

    std::uint64_t frameIndex(Addr line) const;
    std::uint64_t l1Set(Addr line) const;
    std::uint64_t corrKey(Addr line, std::uint32_t sig) const;
    /** First entry of @p key's set, and its keys. */
    std::size_t setStart(std::uint64_t key) const;
    std::uint64_t *keysAt(std::size_t first);
    /** Entry holding @p key, or no_entry. */
    std::size_t findCorr(std::uint64_t key);
    /** Entry holding @p key, claiming its set's LRU entry if none. */
    std::size_t allocCorr(std::uint64_t key);
    void learn(Addr dead_line, std::uint32_t sig, Addr successor);
    void maybePredict(Addr line, std::uint32_t sig, Cycle now);
};

} // namespace microlib

#endif // MICROLIB_MECHANISMS_DBCP_HH

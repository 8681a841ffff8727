/**
 * @file
 * GHB — Global History Buffer prefetching (Nesbit & Smith 2004), at
 * the L2, PC/DC flavour (per-PC miss streams, delta correlation).
 *
 * A 256-entry FIFO holds the global L2 miss address stream; a
 * 256-entry index table maps a load PC to its most recent GHB entry,
 * and entries link backwards per PC. On a miss, the per-PC chain is
 * walked to extract recent deltas; if the two most recent deltas
 * recur earlier in the history, the deltas that followed then are
 * replayed as prefetches (up to degree 4).
 *
 * The paper finds GHB the best performer (Figure 4) but power-hungry
 * despite tiny tables (Figure 5): every miss can trigger up to four
 * requests and repeated table walks — and its extra memory pressure
 * is exactly what the SDRAM model punishes on lucas (Figure 8).
 */

#ifndef MICROLIB_MECHANISMS_GHB_HH
#define MICROLIB_MECHANISMS_GHB_HH

#include "core/mechanism.hh"

namespace microlib
{

/** GHB PC/DC prefetcher. */
class Ghb : public CacheMechanism
{
  public:
    struct Params
    {
        unsigned it_entries = 256;  ///< Table 3
        unsigned ghb_entries = 256; ///< Table 3
        unsigned request_queue = 4; ///< Table 3
        unsigned degree = 4;        ///< prefetches per trigger
        unsigned max_chain = 16;    ///< chain walk bound per miss
    };

    explicit Ghb(const MechanismConfig &cfg);

    Ghb(const MechanismConfig &cfg, const Params &p);

    void cacheAccess(CacheLevel lvl, const MemRequest &req, bool hit,
                     bool first_use) override;

    std::vector<SramSpec> hardware() const override;
    void describe(ParamTable &t) const override;

    Counter chain_walks;

  private:
    struct GhbEntry
    {
        Addr addr = 0;
        std::uint32_t prev = ~0u; ///< previous entry of same PC chain
        std::uint64_t serial = 0; ///< global push serial (validity)
    };

    struct ItEntry
    {
        Addr pc = invalid_addr;
        std::uint32_t head = ~0u;
        std::uint64_t head_serial = 0;
    };

    Params _p;
    RequestQueue _queue;
    std::vector<GhbEntry> _ghb;
    std::vector<ItEntry> _it;
    std::uint64_t _serial = 0; ///< total pushes
    /** push()'s chain addresses and their deltas, reused per miss. */
    std::vector<Addr> _hist;
    std::vector<std::int64_t> _deltas;

    void push(Addr pc, Addr addr, Cycle now);
    bool entryLive(std::uint32_t idx, std::uint64_t serial) const;
};

} // namespace microlib

#endif // MICROLIB_MECHANISMS_GHB_HH

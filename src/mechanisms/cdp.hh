/**
 * @file
 * CDP — Content-Directed Data Prefetching (Cooksey, Jourdan &
 * Grunwald 2002), at the L2.
 *
 * A stateless prefetcher for pointer-based structures: every line
 * arriving at the L2 is scanned for values that look like virtual
 * addresses; candidates are prefetched immediately, and prefetched
 * lines are scanned recursively up to a depth threshold (Table 3: 3).
 *
 * This mechanism *requires data values*, which SimpleScalar does not
 * carry — the paper needed the MicroLib value-accurate cache models;
 * here the hierarchy forwards true line contents from the functional
 * memory image. The paper's headline results: helps twolf (1.07) and
 * equake (1.11), catastrophically floods the bus on mcf (0.75), and
 * systematically misses ammp's next pointers that sit 88 bytes into a
 * 128-byte node.
 */

#ifndef MICROLIB_MECHANISMS_CDP_HH
#define MICROLIB_MECHANISMS_CDP_HH

#include <vector>

#include "core/mechanism.hh"

namespace microlib
{

/** Content-directed pointer prefetcher. */
class Cdp : public CacheMechanism
{
  public:
    struct Params
    {
        unsigned depth_threshold = 3; ///< Table 3
        unsigned request_queue = 128;
    };

    explicit Cdp(const MechanismConfig &cfg);

    Cdp(const MechanismConfig &cfg, const Params &p);

    bool wantsLineContent(CacheLevel lvl) const override;
    void lineContent(CacheLevel lvl, Addr line,
                     const std::vector<Word> &words, AccessKind cause,
                     Cycle now) override;

    std::vector<SramSpec> hardware() const override;
    void describe(ParamTable &t) const override;

    /** Pointer-likeness filter (unit-test hook). */
    static bool candidate(Word w);

    Counter pointers_found;

  private:
    /** Line address -> depth, held in one open-addressing table
     *  (linear probing, backward-shift deletion): the contents a node
     *  map would hold, without a heap node per entry. The table
     *  doubles past three quarters full and clear() keeps it, so a
     *  map that is bounded by clearing stops allocating. */
    class DepthMap
    {
      public:
        /** Remove @p line, setting @p depth to its value; false when
         *  absent. */
        bool take(Addr line, unsigned &depth);
        void set(Addr line, unsigned depth);
        void erase(Addr line);
        std::size_t size() const { return _size; }
        void clear();

      private:
        /** line == invalid_addr marks an empty slot: line addresses
         *  are aligned, so never all ones. */
        struct Slot
        {
            Addr line = invalid_addr;
            unsigned depth = 0;
        };

        std::vector<Slot> _slots; ///< power-of-two size, or empty
        unsigned _shift = 64;     ///< 64 - log2(_slots.size())
        std::size_t _size = 0;

        std::size_t home(Addr line) const;
        /** The slot holding @p line, or the empty slot ending its
         *  probe run. _slots must not be empty. */
        std::size_t locate(Addr line) const;
        void eraseAt(std::size_t i);
    };

    Params _p;
    RequestQueue _queue;
    DepthMap _depth; ///< prefetched line depth
};

} // namespace microlib

#endif // MICROLIB_MECHANISMS_CDP_HH

/**
 * @file
 * SDRAM timing model (paper Table 1, Section 3.3).
 *
 * The paper replaces SimpleScalar's constant-latency memory with a
 * banked SDRAM behind a 400 MHz front-side bus: open-page row
 * buffers, RAS/CAS/precharge timings (given in CPU cycles), a
 * 32-entry controller queue, and a bank-interleaved address mapping
 * with an optional permutation scheme (Zhang et al.) that reduces
 * row-buffer conflicts. The result is the benchmark- and
 * mechanism-dependent latency spread of Figure 8 (87 CPU cycles on
 * gzip to 389 on lucas for the baseline).
 */

#ifndef MICROLIB_MEM_SDRAM_HH
#define MICROLIB_MEM_SDRAM_HH

#include <string>
#include <vector>

#include "mem/bus.hh"
#include "mem/request.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace microlib
{

/** How physical addresses map onto (bank, row, column). */
enum class DramMapping
{
    LineInterleave,        ///< consecutive lines round-robin over banks
    PermutationInterleave, ///< + XOR of row bits into the bank index
};

/** SDRAM configuration; defaults are the paper's Table 1 values,
 *  with timings in CPU cycles (2 GHz core). */
struct SdramParams
{
    std::string name = "dram";
    unsigned banks = 4;
    unsigned rows = 8192;
    unsigned columns = 1024;
    std::uint64_t column_bytes = 8;   ///< bytes per column access

    Cycle ras_to_ras = 20;      ///< tRRD, across banks
    Cycle ras_active = 80;      ///< tRAS, activate to precharge
    Cycle ras_to_cas = 30;      ///< tRCD
    Cycle cas_latency = 30;     ///< CL
    Cycle ras_precharge = 30;   ///< tRP
    Cycle ras_cycle = 110;      ///< tRC, activate to activate (same bank)

    unsigned queue_entries = 32;
    DramMapping mapping = DramMapping::PermutationInterleave;

    /**
     * Controller scheduling (Green et al., retained by the paper
     * because it "significantly reduces conflicts in row buffers"):
     * the queue reorders requests so that accesses to the same row
     * are serviced back-to-back. Modeled as this many concurrently
     * "batched" rows per bank; 1 = plain in-order open-page.
     */
    unsigned scheduler_rows = 4;
    /** A batched row goes stale after this many idle cycles. */
    Cycle scheduler_window = 2000;

    /** Transfer granularity seen from the bus side (L2 line). */
    std::uint64_t line_bytes = 64;

    /** Uniformly scale all timing parameters (the Figure 8
     *  "70-cycle SDRAM" point scales CAS and friends down). */
    void scaleTimings(double factor);
};

/**
 * The SDRAM controller queue: the completion cycles of requests in
 * flight, at most `entries` of them. A request presented at `when`
 * first retires every entry complete by then; if the queue is still
 * full it waits for the oldest in-flight request. Kept as a min-heap,
 * so the oldest is the front and retiring pops it.
 */
class SdramQueue
{
  public:
    explicit SdramQueue(unsigned entries);

    /** Cycle a request presented at @p when is admitted: @p when, or
     *  a later cycle (a queue stall) when every entry is busy then. */
    Cycle admit(Cycle when);

    /** Occupy an entry until @p completion (after an admit()). */
    void retire(Cycle completion);

  private:
    unsigned _entries;
    std::vector<Cycle> _heap; ///< completion cycles, min-heap
};

/** Open-page SDRAM with a shared data bus and controller queue. */
class Sdram : public MemDevice
{
  public:
    /**
     * @param p timing/geometry
     * @param fsb front-side bus the data travels over (owned by the
     *        hierarchy; shared with other DRAM traffic)
     */
    Sdram(const SdramParams &p, Bus *fsb);

    Cycle access(const MemRequest &req) override;
    const char *deviceName() const override { return _p.name.c_str(); }

    void registerStats(StatSet &stats) const;

    const SdramParams &params() const { return _p; }

    // Statistics
    Counter reads;
    Counter writes;
    Counter row_hits;
    Counter row_conflicts; ///< had to precharge an open row
    Counter row_empty;     ///< bank had no open row
    Counter precharges;
    Counter activates;
    Counter queue_stalls;
    Average latency;       ///< request-to-data CPU cycles (reads)

  private:
    SdramParams _p;
    Bus *_fsb;

    struct RowSlot
    {
        std::uint64_t row = 0;
        Cycle last_use = 0;
        bool valid = false;
    };

    struct BankState
    {
        Cycle ready = 0;          ///< bank command ready time
        Cycle last_activate = 0;
        bool ever_activated = false;
        bool any_open = false;
        std::vector<RowSlot> slots; ///< scheduler-batched rows
    };

    std::vector<BankState> _banks;
    Cycle _last_activate_any = 0;
    bool _any_activated = false;
    SdramQueue _queue;

    // Address decoding by shift and mask (every geometry field is a
    // power of two).
    unsigned _line_shift = 0;       ///< log2(line_bytes)
    unsigned _bank_shift = 0;       ///< log2(banks)
    unsigned _row_lines_shift = 0;  ///< log2(lines per row)
    std::uint64_t _columns_per_line = 0; ///< line_bytes / column_bytes

    struct Decoded
    {
        unsigned bank;
        std::uint64_t row;
        std::uint64_t column;
    };

    Decoded decode(Addr addr) const;
};

} // namespace microlib

#endif // MICROLIB_MEM_SDRAM_HH

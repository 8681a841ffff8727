/**
 * @file
 * Structure-of-arrays trace windows.
 *
 * The core's per-instruction loop reads four to six fields of every
 * dynamic instruction; an array of TraceRecord would drag the fields
 * most models never touch (basic-block ids, data values) through the
 * cache with them. A materialized window is therefore held only as
 * TraceSoA's dense parallel arrays — the generator's records are
 * appended straight into the columns — and TraceView is the
 * non-owning span bundle the hot loop streams over: sequential,
 * prefetch-friendly, one array per consumed field.
 */

#ifndef MICROLIB_TRACE_TRACE_VIEW_HH
#define MICROLIB_TRACE_TRACE_VIEW_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/record.hh"

namespace microlib
{

/**
 * Non-owning parallel-span view over a trace window. All pointers
 * address arrays of size() elements owned by a TraceSoA (or any
 * other storage outliving the view).
 */
struct TraceView
{
    const std::uint32_t *pc = nullptr;
    const std::uint32_t *addr = nullptr;
    /** Data values: unread by the core loop (it never touches the
     *  array, so it costs no cache traffic), carried for
     *  value-sensitive consumers (FVC/CDP-style scans). */
    const Word *value = nullptr;
    const OpClass *op = nullptr;
    const std::uint8_t *dep1 = nullptr;
    const std::uint8_t *dep2 = nullptr;
    std::size_t n = 0;

    std::size_t size() const { return n; }
    bool empty() const { return n == 0; }
};

/** SoA storage for one trace window, built once per cached trace and
 *  shared by every run consuming it. Two modes: *owning* (append()
 *  fills the member vectors — the generate path) and *borrowing*
 *  (borrow() points the view at columns owned by someone else, e.g.
 *  a read-only mmap of a trace-arena file — see trace_arena.hh). A
 *  borrowing SoA holds no heap memory for the columns; whoever owns
 *  the spans must outlive it. */
class TraceSoA
{
  public:
    TraceSoA() = default;

    /** Owning SoA holding @p records' columns. */
    explicit TraceSoA(const Trace &records)
    {
        reserve(records.size());
        for (const TraceRecord &r : records)
            append(r);
    }

    /** Reserve room for @p n records in every owned column. */
    void reserve(std::size_t n);

    /** Append @p r's columns (owning mode only). */
    void
    append(const TraceRecord &r)
    {
        _pc.push_back(r.pc);
        _addr.push_back(r.addr);
        _value.push_back(r.value);
        _op.push_back(r.op);
        _dep1.push_back(r.dep1);
        _dep2.push_back(r.dep2);
    }

    /** Point the view at externally owned column spans (borrowing
     *  mode; releases any owned arrays). @p v's pointers must stay
     *  valid for the SoA's lifetime. */
    void borrow(const TraceView &v);

    /** Whether view() borrows externally owned spans. */
    bool borrowed() const { return _borrowed.pc != nullptr; }

    /** View over the current arrays; invalidated by append(). */
    TraceView view() const;

    std::size_t size() const { return view().n; }
    bool empty() const { return size() == 0; }

    /** Heap bytes *owned* by the parallel arrays (trace-cache byte
     *  budget accounting). Zero in borrowing mode — the bytes behind
     *  a borrowed view belong to the mapping (OS page cache), not
     *  this process's heap. */
    std::size_t
    footprintBytes() const
    {
        return _pc.capacity() * sizeof(std::uint32_t) +
               _addr.capacity() * sizeof(std::uint32_t) +
               _value.capacity() * sizeof(Word) +
               _op.capacity() * sizeof(OpClass) +
               _dep1.capacity() * sizeof(std::uint8_t) +
               _dep2.capacity() * sizeof(std::uint8_t);
    }

    /** Bytes the borrowed column spans address (0 in owning mode). */
    std::size_t
    footprintMappedBytes() const
    {
        if (!borrowed())
            return 0;
        return _borrowed.n *
               (sizeof(std::uint32_t) * 2 + sizeof(Word) +
                sizeof(OpClass) + sizeof(std::uint8_t) * 2);
    }

  private:
    std::vector<std::uint32_t> _pc;
    std::vector<std::uint32_t> _addr;
    std::vector<Word> _value;
    std::vector<OpClass> _op;
    std::vector<std::uint8_t> _dep1;
    std::vector<std::uint8_t> _dep2;
    /** Borrowed spans; pc != nullptr marks borrowing mode. */
    TraceView _borrowed;
};

} // namespace microlib

#endif // MICROLIB_TRACE_TRACE_VIEW_HH

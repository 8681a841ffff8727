/**
 * @file
 * Trace windows: materializing a (skip, length) slice of a synthetic
 * benchmark into memory.
 *
 * The experiment engine materializes each benchmark window once and
 * reuses it across all mechanisms, so mechanism comparisons see
 * bit-identical input (the paper's whole point).
 */

#ifndef MICROLIB_TRACE_WINDOW_HH
#define MICROLIB_TRACE_WINDOW_HH

#include <memory>

#include "trace/generator.hh"
#include "trace/record.hh"
#include "trace/trace_view.hh"

namespace microlib
{

class MappedFile;

/** A slice of a benchmark's dynamic instruction stream. */
struct TraceWindow
{
    std::uint64_t skip = 0;
    std::uint64_t length = 0;
};

/** A materialized window together with the memory image that backs
 *  value-sensitive mechanisms (CDP, FVC). The window's only
 *  representation is its SoA columns: a *generated* trace owns them
 *  (materialize() appends each generator record straight into the
 *  columns, once, and every run over the window streams the same
 *  arrays); a trace *mapped* from the trace arena (trace_arena.hh)
 *  borrows them straight out of a read-only mmap, and `mapping`
 *  keeps the file mapped. */
struct MaterializedTrace
{
    TraceSoA soa;
    std::shared_ptr<const MemoryImage> image;
    std::string benchmark;
    TraceWindow window;
    /** Arena mapping backing borrowed SoA spans; null for generated
     *  traces. Dropping the last reference munmaps. */
    std::shared_ptr<const MappedFile> mapping;

    /** Span bundle for the simulation hot loop. */
    TraceView view() const { return soa.view(); }

    /** Whether the SoA columns live in an arena mmap rather than
     *  this process's heap. */
    bool mapped() const { return mapping != nullptr; }

    /**
     * Estimated *heap-owned* resident bytes: owned SoA arrays + the
     * memory image's allocated pages. This — not the
     * mapped bytes — is what the trace cache charges against its
     * byte budget (MICROLIB_TRACE_BUDGET_MB): the OS page cache owns
     * a mapping's bytes and reclaims them under pressure on its own,
     * so a mapped trace costs the budget only its image and
     * bookkeeping. An estimate is fine — the budget bounds memory,
     * it does not account it to the byte.
     */
    std::size_t
    footprintOwnedBytes() const
    {
        std::size_t bytes = sizeof(*this);
        bytes += soa.footprintBytes();
        if (image)
            bytes += image->allocatedPages() *
                     (MemoryImage::page_bytes + 64);
        return bytes;
    }

    /** Bytes addressed through the arena mapping (0 when not
     *  mapped). Defined in window.cc (needs MappedFile's size). */
    std::size_t footprintMappedBytes() const;

    /** Total resident estimate, owned + mapped. */
    std::size_t
    footprintBytes() const
    {
        return footprintOwnedBytes() + footprintMappedBytes();
    }
};

/**
 * Materialize @p window of @p prog. The generator is reset first, so
 * the result is a pure function of (program, window).
 */
MaterializedTrace materialize(const SpecProgram &prog,
                              const TraceWindow &window);

} // namespace microlib

#endif // MICROLIB_TRACE_WINDOW_HH

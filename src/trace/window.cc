#include "trace/window.hh"

#include "trace/trace_arena.hh"

namespace microlib
{

std::size_t
MaterializedTrace::footprintMappedBytes() const
{
    return mapping ? mapping->size() : 0;
}

MaterializedTrace
materialize(const SpecProgram &prog, const TraceWindow &window)
{
    SpecGenerator gen(prog);
    gen.skip(window.skip);

    MaterializedTrace out;
    out.benchmark = prog.name;
    out.window = window;
    out.soa.reserve(window.length);
    TraceRecord rec;
    for (std::uint64_t i = 0; i < window.length; ++i) {
        gen.next(rec);
        out.soa.append(rec);
    }

    // materialize() owns the generator, so the trace takes its final
    // image without a copy.
    out.image = gen.releaseImage();
    return out;
}

} // namespace microlib

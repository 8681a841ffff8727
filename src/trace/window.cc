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
    out.records.resize(window.length);
    for (auto &rec : out.records)
        gen.next(rec);
    // Transpose once here so every consumer of the cached trace
    // shares one SoA build instead of paying per run.
    out.soa.build(out.records);

    // materialize() owns the generator, so the trace takes its final
    // image without a copy.
    out.image = gen.releaseImage();
    return out;
}

} // namespace microlib

#include "trace/trace_view.hh"

namespace microlib
{

void
TraceSoA::reserve(std::size_t n)
{
    _pc.reserve(n);
    _addr.reserve(n);
    _value.reserve(n);
    _op.reserve(n);
    _dep1.reserve(n);
    _dep2.reserve(n);
}

void
TraceSoA::borrow(const TraceView &v)
{
    _pc.clear();
    _pc.shrink_to_fit();
    _addr.clear();
    _addr.shrink_to_fit();
    _value.clear();
    _value.shrink_to_fit();
    _op.clear();
    _op.shrink_to_fit();
    _dep1.clear();
    _dep1.shrink_to_fit();
    _dep2.clear();
    _dep2.shrink_to_fit();
    _borrowed = v;
}

TraceView
TraceSoA::view() const
{
    if (borrowed())
        return _borrowed;
    TraceView v;
    v.pc = _pc.data();
    v.addr = _addr.data();
    v.value = _value.data();
    v.op = _op.data();
    v.dep1 = _dep1.data();
    v.dep2 = _dep2.data();
    v.n = _op.size();
    return v;
}

} // namespace microlib

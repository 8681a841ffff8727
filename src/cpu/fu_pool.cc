#include "cpu/fu_pool.hh"

#include "sim/logging.hh"

namespace microlib
{

FuPool::FuPool(const FuPoolParams &p)
    : _p(p),
      _latency{p.int_alu_latency, p.int_mult_latency, p.fp_alu_latency,
               p.fp_mult_latency, p.agen_latency,     p.agen_latency,
               p.int_alu_latency}
{
    for (const unsigned n :
         {p.int_alu, p.int_mult, p.fp_alu, p.fp_mult, p.ls_units}) {
        if (n == 0)
            fatal("every functional unit class needs at least one unit");
        if (n > max_units)
            fatal("functional unit class of ", n, " units exceeds the ",
                  max_units, "-unit pool limit");
    }
    reset();
}

void
FuPool::reset()
{
    const unsigned counts[num_unit_classes] = {
        _p.int_alu, _p.int_mult, _p.fp_alu, _p.fp_mult, _p.ls_units};
    for (std::size_t c = 0; c < num_unit_classes; ++c)
        for (unsigned u = 0; u < max_units; ++u)
            _units[c][u] = u < counts[c] ? 0 : never;
}

} // namespace microlib

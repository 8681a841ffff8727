#include "sim/stats.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace microlib
{

StatSet::StatSet()
{
    // A full hierarchy plus mechanism registers ~40 stats; reserving
    // past that keeps registration rehash-free.
    _counters.reserve(64);
    _averages.reserve(16);
}

void
StatSet::registerCounter(const std::string &name, const Counter *c)
{
    if (!_counters.emplace(name, c).second)
        panic("duplicate stat name: ", name);
}

void
StatSet::registerAverage(const std::string &name, const Average *a)
{
    if (!_averages.emplace(name, a).second)
        panic("duplicate stat name: ", name);
}

double
StatSet::get(const std::string &name) const
{
    if (auto it = _counters.find(name); it != _counters.end())
        return static_cast<double>(it->second->value());
    if (auto it = _averages.find(name); it != _averages.end())
        return it->second->mean();
    panic("unknown stat: ", name);
}

bool
StatSet::has(const std::string &name) const
{
    return _counters.count(name) || _averages.count(name);
}

std::vector<std::string>
StatSet::names() const
{
    std::vector<std::string> out;
    for (const auto &kv : _counters)
        out.push_back(kv.first);
    for (const auto &kv : _averages)
        out.push_back(kv.first);
    std::sort(out.begin(), out.end());
    return out;
}

void
StatSet::snapshot(std::map<std::string, double> &out) const
{
    for (const auto &kv : _counters)
        out[kv.first] = static_cast<double>(kv.second->value());
    for (const auto &kv : _averages)
        out[kv.first] = kv.second->mean();
}

void
StatSet::dump(std::ostream &os) const
{
    for (const auto &name : names())
        os << name << " = " << get(name) << "\n";
}

} // namespace microlib

/**
 * @file
 * Lightweight statistics primitives.
 *
 * Every model component owns a plain struct of these primitives and
 * registers them with a StatSet under hierarchical dotted names
 * ("l1d.misses", "dram.row_hits"). The StatSet is then queried by the
 * experiment engine and dumped by the benchmark harnesses.
 */

#ifndef MICROLIB_SIM_STATS_HH
#define MICROLIB_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

namespace microlib
{

/** Monotonic event counter. */
class Counter
{
  public:
    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }
    void reset() { _value = 0; }

    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
};

/** Running average (sum / count). */
class Average
{
  public:
    void sample(double v) { _sum += v; ++_count; }
    void reset() { _sum = 0.0; _count = 0; }

    double sum() const { return _sum; }
    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _sum / _count : 0.0; }

  private:
    double _sum = 0.0;
    std::uint64_t _count = 0;
};

/**
 * Name → value registry. Components register their counters once;
 * values are read through the registered pointers at query time, so no
 * per-event registry cost is paid. Hash-indexed with capacity
 * reserved up front: a baseline hierarchy registers a few dozen
 * stats, and lookups sit on the per-run report path.
 */
class StatSet
{
  public:
    StatSet();

    void registerCounter(const std::string &name, const Counter *c);
    void registerAverage(const std::string &name, const Average *a);

    /** Value of a registered stat; averages report their mean. */
    double get(const std::string &name) const;

    /** True iff @p name was registered. */
    bool has(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Copy every registered stat's current value into @p out in one
     * registry walk. The report path uses this instead of names()
     * followed by per-name get() calls, which rebuilt and sorted the
     * name list and then paid one lookup per stat.
     */
    void snapshot(std::map<std::string, double> &out) const;

    /** Dump "name = value" lines. */
    void dump(std::ostream &os) const;

  private:
    std::unordered_map<std::string, const Counter *> _counters;
    std::unordered_map<std::string, const Average *> _averages;
};

} // namespace microlib

#endif // MICROLIB_SIM_STATS_HH

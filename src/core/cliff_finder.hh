/**
 * @file
 * CliffFinder: search-driven sensitivity studies.
 *
 * Grid sweeps (core/sweep_spec.hh) show mechanism rankings at the
 * points you thought to enumerate; the interesting object is the
 * *boundary* — the configuration cliff where the speedup ranking of
 * two mechanisms inverts. CliffFinder locates that boundary by
 * search instead of enumeration: given a base SweepSpec, two
 * mechanisms and a numeric axis of the settable-parameter registry,
 * it evaluates the axis endpoints and bisects — respecting the key's
 * legal granularity (power-of-two sizes and associativities, integer
 * widths) — until it holds the tightest adjacent pair of legal
 * values whose rankings differ.
 *
 * Every probe is an ordinary single-variant sweep built by
 * SweepSpec::axisSlice and driven through ExperimentEngine::run, so
 * the whole machinery the sweep stack already has applies unchanged:
 * the ResultStore dedupes probes by config fingerprint (a repeated
 * or resumed search executes only the runs it has never seen),
 * probes can fan out over the supervised ProcessShardBackend (a
 * crashing probe quarantines its poison task without killing the
 * search — the probe is reported FAULTED and the other axes keep
 * searching), and every result is bit-identical across thread and
 * shard counts.
 *
 * Rankings use rankBefore (core/ranking.hh): higher mean speedup vs
 * "Base" first, exact ties broken by acronym — a total order, so a
 * flip can only come from the results changing, never from catalog
 * order. "Base" is added to each probe's mechanism list when the
 * compared pair doesn't include it, since speedups are relative to
 * it.
 *
 * A discovered cliff is emitted as a minimal *flip witness*: a
 * canonical 2-variant x (pair + Base) `.sweep` file whose two
 * variants are the bracket's two sides — replaying it with
 * microlib_sweep reproduces the flip bit-identically — plus a JSON
 * summary (axis, bracket, per-side speedups, probe count). The
 * multi-axis driver findAll() scans every searchable axis a spec
 * declares and aggregates the results into a cliff report table.
 * See docs/CLIFF_FINDER.md.
 */

#ifndef MICROLIB_CORE_CLIFF_FINDER_HH
#define MICROLIB_CORE_CLIFF_FINDER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/sweep_spec.hh"
#include "sim/report.hh"

namespace microlib
{

class ExperimentEngine;

/** One evaluated point of an axis search. */
struct CliffProbe
{
    std::uint64_t value = 0;  ///< the axis value probed
    double speedup_a = 1.0;   ///< mean speedup vs Base, mechanism A
    double speedup_b = 1.0;   ///< mean speedup vs Base, mechanism B
    bool a_wins = false;      ///< rankBefore(A, B) at this point
    bool faulted = false;     ///< probe quarantined a task: no ranking
    /** Set by bisectCliff once the point actually ran: a search that
     *  faults on its first probe leaves `hi` unevaluated, and reports
     *  render it as "-" rather than a fake result. */
    bool evaluated = false;
};

/** Outcome of one axis search. */
enum class CliffStatus
{
    Flip,    ///< bracket holds the tightest adjacent ranking flip
    NoFlip,  ///< endpoints agree: no flip between them to bisect to
    Faulted, ///< a probe faulted; the bracket is wherever search stopped
};

/** Lowercase status name ("flip" / "noflip" / "faulted"). */
const char *cliffStatusName(CliffStatus status);

/** Result of searching one axis for one mechanism pair. */
struct CliffResult
{
    std::string axis;   ///< registry key searched
    std::string mech_a; ///< first mechanism of the compared pair
    std::string mech_b; ///< second mechanism of the compared pair
    CliffStatus status = CliffStatus::NoFlip;
    /** Final bracket: for Flip the adjacent pair with lo.a_wins !=
     *  hi.a_wins; for NoFlip the two endpoints; for Faulted the
     *  bracket when the search stopped. */
    CliffProbe lo, hi;
    /** Every probe, in evaluation order (endpoints first). */
    std::vector<CliffProbe> probes;
    std::size_t executed = 0; ///< tasks simulated across all probes
    std::size_t resumed = 0;  ///< tasks restored from the store
    std::string witness_path; ///< written witness .sweep ("" if none)
};

/**
 * The legal value strictly between @p lo and @p hi on @p scale that
 * bisection probes next, or 0 when (lo, hi) are already adjacent
 * (Linear: hi <= lo + 1; Pow2: hi <= 2 * lo). Pow2 takes the
 * log-space midpoint, rounded down; both values must be powers of
 * two. Requires lo < hi.
 */
std::uint64_t axisMidpoint(AxisScale scale, std::uint64_t lo,
                           std::uint64_t hi);

/**
 * Upper bound on the number of probes bisectCliff() evaluates for
 * the endpoint pair (@p lo, @p hi): the two endpoints plus
 * ceil(log2(steps)) bisection iterations, where steps is the number
 * of legal increments between them.
 */
std::size_t bisectionBound(AxisScale scale, std::uint64_t lo,
                           std::uint64_t hi);

/** Evaluates one axis value; the search core's only dependency on
 *  the simulator (tests drive it with closed-form models). */
using CliffProber = std::function<CliffProbe(std::uint64_t value)>;

/**
 * The pure search core: evaluate @p lo and @p hi, and if their
 * rankings differ, bisect on @p scale until the bracket is adjacent.
 * The invariant throughout is lo.a_wins != hi.a_wins, so the final
 * bracket is a genuine flip. Engine-free and deterministic: the
 * probe sequence is a pure function of (scale, lo, hi, winners).
 */
CliffResult bisectCliff(AxisScale scale, std::uint64_t lo,
                        std::uint64_t hi, const CliffProber &probe);

/** CliffFinder construction knobs. */
struct CliffFinderOptions
{
    /** Directory for witness .sweep + .json artifacts (created if
     *  missing); empty = don't write artifacts. */
    std::string witness_dir;

    /** Log each probe as it is evaluated. */
    bool verbose = false;
};

/**
 * Engine-backed cliff search over the axes of a base SweepSpec. The
 * endpoints of an axis search are the smallest and largest values
 * the spec declares for that axis; other axes are pinned at their
 * first declared value (SweepSpec::axisSlice), so a multi-axis spec
 * yields one independent 1-D search per axis.
 */
class CliffFinder
{
  public:
    /** @p engine drives every probe (its store and backend apply);
     *  @p base is the sweep being studied. */
    CliffFinder(ExperimentEngine &engine, SweepSpec base,
                CliffFinderOptions opts = {});

    /**
     * Whether @p axis_key can be searched in the base spec: declared
     * as an axis, registered with a numeric scale, at least two
     * distinct values, every value legal on the scale (powers of two
     * on a Pow2 axis). False + *error with the reason.
     */
    bool searchable(const std::string &axis_key,
                    std::string *error = nullptr) const;

    /** Every declared axis searchable() accepts, in declaration
     *  order — the --all-axes work list. */
    std::vector<std::string> searchableAxes() const;

    /**
     * Search @p axis_key for the ranking flip of @p mech_a vs
     * @p mech_b (fatal if !searchable(); callers validate first).
     * Emits witness artifacts per options. Probes run sequentially
     * through the engine; each probe's tasks land in the engine's
     * result store, so repeating a search against a warm store
     * executes zero new tasks.
     */
    CliffResult find(const std::string &mech_a,
                     const std::string &mech_b,
                     const std::string &axis_key);

    /** find() over every searchableAxes() entry, in order. */
    std::vector<CliffResult> findAll(const std::string &mech_a,
                                     const std::string &mech_b);

    /**
     * The canonical flip-witness spec of @p r: the base spec sliced
     * to (Base +) the compared pair with the searched axis holding
     * exactly the bracket's two values. Valid for any status (the
     * NoFlip witness is the endpoint pair); find() only writes it
     * for Flip.
     */
    SweepSpec witnessSpec(const CliffResult &r) const;

    /**
     * The cliff report: one row per search — status, bracket,
     * per-side speedups, probe count. Deterministic (fixed precision,
     * no timestamps), so fresh and resumed searches render the same
     * bytes.
     */
    static Table report(const std::vector<CliffResult> &results);

  private:
    CliffProbe probePoint(const std::string &axis_key,
                          std::uint64_t value, CliffResult &r);
    void writeWitness(CliffResult &r);

    ExperimentEngine &_engine;
    SweepSpec _base;
    CliffFinderOptions _opts;
};

} // namespace microlib

#endif // MICROLIB_CORE_CLIFF_FINDER_HH

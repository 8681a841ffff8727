/**
 * @file
 * SweepSpec: the declarative, serializable description of a sweep.
 *
 * MicroLib's comparisons are only meaningful when every run — across
 * mechanisms AND system configurations — comes from one reproducible
 * experiment description. A SweepSpec is that description as data,
 * not code: benchmarks x mechanisms x named config variants, where
 * the variants are the cartesian expansion of declared *axes*
 * ("hier.l2.size = 256k, 512k, 1M") over a registry of settable
 * BaselineConfig / TraceScale parameters. The spec serializes to a
 * canonical line-based `.sweep` text format, so any host that parses
 * the same file builds the identical fingerprinted TaskPlan — the
 * property cluster-wide sharding rests on.
 *
 * Format (see docs/SWEEP_SPEC.md for the grammar and axis table):
 *
 *   sweep-spec v1
 *   bench swim gzip mcf
 *   mech Base TP SP GHB
 *   base window.trace_length=100000
 *   axis hier.l2.size 256k 1M
 *
 * `base` lines set one parameter for every variant; each `axis` line
 * declares one swept parameter. Variants are the cartesian product
 * of the axes in declared order, the first axis varying slowest; a
 * spec with no axes has the single variant "base". `#` starts a
 * comment; parse accepts any whitespace, canonicalText() emits the
 * normalized form whose FNV-1a hash is stable across hosts.
 *
 * The spec never stores a resolved RunConfig: each variant's config
 * is produced by applying the base settings and then the variant's
 * axis settings to a default RunConfig. Result-store fingerprints
 * hash the *resolved* config, so two variants differing in any
 * setting can never collide in the store.
 */

#ifndef MICROLIB_CORE_SWEEP_SPEC_HH
#define MICROLIB_CORE_SWEEP_SPEC_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "sim/report.hh"

namespace microlib
{

/**
 * Version of the sweep-hash algorithm: the `.sweep` canonical text
 * format ("sweep-spec v<N>" header) whose FNV-1a hash identifies a
 * sweep across hosts — the dedup key microlib_sweepd keys jobs on.
 * Bump whenever canonicalText()'s output or the hash function
 * changes; it is part of the schema tuple (sim/version.hh) the
 * daemon uses to reject incompatible workers.
 */
constexpr int sweep_hash_version = 1;

/**
 * Legal granularity of a parameter's numeric domain — what "the next
 * value" means when a search bisects along the axis
 * (core/cliff_finder.hh).
 *
 *  - None:   not a searchable number (enums, booleans, fractions);
 *            sweeps may still enumerate its values explicitly.
 *  - Linear: any integer >= the parameter's minimum; adjacent values
 *            differ by 1 (widths, counts, latencies).
 *  - Pow2:   powers of two only (cache sizes and associativities —
 *            the cache model requires a power-of-two set count);
 *            adjacent values differ by a factor of 2.
 */
enum class AxisScale
{
    None,
    Linear,
    Pow2,
};

/** One settable parameter of the axis registry. */
struct AxisParam
{
    std::string key;    ///< dotted name, e.g. "hier.l2.size"
    std::string values; ///< value syntax help, e.g. "bytes (k/M/G)"
    std::string what;   ///< one-line description
    /** Apply @p value to @p cfg; false + *error on a bad value. */
    std::function<bool(RunConfig &cfg, const std::string &value,
                       std::string *error)>
        apply;
    /** Numeric granularity for axis searches (None = unsearchable). */
    AxisScale scale = AxisScale::None;
    /** Smallest legal value on a searchable axis. */
    std::uint64_t search_min = 1;
};

/** Every parameter a spec may set, in canonical (docs) order. */
const std::vector<AxisParam> &axisRegistry();

/** Registry entry for @p key, or nullptr if unknown. */
const AxisParam *findAxisParam(const std::string &key);

/** One key=value assignment. */
struct AxisSetting
{
    std::string key;
    std::string value;
};

/** One declared axis: a key and the values it sweeps over. */
struct AxisDecl
{
    std::string key;
    std::vector<std::string> values;
};

/**
 * One expanded point of the axes: the variant's display name
 * ("hier.l2.size=256k" / "base") and its axis assignments in axis
 * declaration order.
 */
struct ConfigVariant
{
    std::string name;
    std::vector<AxisSetting> settings;
};

/** Declarative sweep description; see the file comment. */
class SweepSpec
{
  public:
    SweepSpec() = default;

    const std::vector<std::string> &benchmarks() const
    {
        return _benchmarks;
    }
    const std::vector<std::string> &mechanisms() const
    {
        return _mechanisms;
    }
    /** Replace the benchmark list; false + *error (list unchanged)
     *  on a name no suite program has, as parse() rejects it. */
    bool setBenchmarks(std::vector<std::string> b,
                       std::string *error = nullptr);

    /** Replace the mechanism list; false + *error (list unchanged)
     *  on a name the mechanism registry lacks. */
    bool setMechanisms(std::vector<std::string> m,
                       std::string *error = nullptr);

    /** Declared axes, first = slowest-varying. */
    const std::vector<AxisDecl> &axes() const { return _axes; }

    /** Add a base setting; false + *error on an unknown key or a
     *  value its parameter rejects. */
    bool addBase(const std::string &key, const std::string &value,
                 std::string *error = nullptr);

    /** Declare an axis; false + *error on an unknown key, a bad
     *  value, an empty value list, or a duplicate axis key. */
    bool addAxis(const std::string &key,
                 const std::vector<std::string> &values,
                 std::string *error = nullptr);

    /**
     * Parse a spec from `.sweep` text. On failure returns false and
     * sets *error to a message naming the line and the problem
     * (unknown benchmark / mechanism / axis key, bad value, ...).
     */
    static bool parse(const std::string &text, SweepSpec &out,
                      std::string *error);

    /** Parse the file at @p path; false + *error if unreadable or
     *  malformed. */
    static bool load(const std::string &path, SweepSpec &out,
                     std::string *error);

    /**
     * The canonical serialized form: fixed line order, single-space
     * separators, no comments. parse(canonicalText()) reproduces the
     * spec, and hash() is the FNV-1a hash of exactly this text — the
     * same on every host.
     */
    std::string canonicalText() const;

    /** FNV-1a hash of canonicalText(). */
    std::uint64_t hash() const;

    /** Number of variants the axes expand to (1 with no axes). */
    std::size_t variantCount() const;

    /** All variants, in expansion order (first axis slowest). */
    std::vector<ConfigVariant> variants() const;

    /** The resolved configuration of @p variant: a default RunConfig
     *  + base settings + the variant's settings. Fatal on a setting the
     *  registry rejects (specs built through addBase/addAxis/parse
     *  were already validated). */
    RunConfig resolve(const ConfigVariant &variant) const;

    /**
     * Synthesize the spec of one slice of this sweep's axis space:
     * the same benchmarks and base settings, the mechanism list
     * replaced by @p mechanisms, every axis other than @p axis_key
     * pinned at its first declared value (appended as a base setting,
     * in axis order), and @p axis_key declared as the sole axis over
     * @p values. The cliff finder builds every probe (one value) and
     * every flip witness (the two bracket values) through this: a
     * probe's resolved config differs from the parent sweep's
     * matching variant only where the parent's axes were pinned, so
     * result-store fingerprints dedupe shared points. @p axis_key
     * need not be declared in this spec, but must be a registry key
     * and accept every value. False + *error on a bad key/value or
     * empty @p values.
     */
    bool axisSlice(const std::vector<std::string> &mechanisms,
                   const std::string &axis_key,
                   const std::vector<std::string> &values,
                   SweepSpec &out, std::string *error = nullptr) const;

  private:
    std::vector<std::string> _benchmarks;
    std::vector<std::string> _mechanisms;
    std::vector<AxisSetting> _base;
    std::vector<AxisDecl> _axes;
};

/**
 * Outcome of one sweep: the per-variant IPC matrices plus the variant
 * names, in the spec's expansion order. Every matrix shares the same
 * mechanism and benchmark vectors.
 */
struct SweepResult
{
    std::vector<std::string> variants; ///< display names
    std::vector<MatrixResult> matrices;

    MatrixResult &matrix(std::size_t v) { return matrices[v]; }
    const MatrixResult &matrix(std::size_t v) const
    {
        return matrices[v];
    }
};

/**
 * Cross-variant sensitivity table: mechanisms as rows, variants as
 * columns. Cells are the mean speedup over all benchmarks vs "Base"
 * within the same variant when the sweep includes "Base", else the
 * mean IPC — the title says which. A pure function of @p res, so a
 * merged sharded sweep renders it byte-identically to a
 * single-process run.
 */
Table sensitivityTable(const SweepResult &res);

} // namespace microlib

#endif // MICROLIB_CORE_SWEEP_SPEC_HH

#include "core/sweep_spec.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "core/registry.hh"
#include "sim/config.hh"
#include "sim/fingerprint.hh"
#include "sim/logging.hh"
#include "trace/spec_suite.hh"

namespace microlib
{

namespace
{

/** Hard ceiling on axis expansion: a typo like "1..1000000" must
 *  fail loudly, not allocate a million matrices. */
constexpr std::size_t max_variants = 4096;

bool
fail(std::string *error, const std::string &msg)
{
    if (error)
        *error = msg;
    return false;
}

/** Shared numeric parse: an integer >= @p min_value, k/M/G suffixes
 *  allowed (sim/options.hh parseCount takes plain digits only). */
bool
parseScaledAtLeast(const std::string &v, std::uint64_t &out,
                   std::string *error, std::uint64_t min_value)
{
    if (!parseScaledU64(v, out) || out < min_value)
        return fail(error, "expected an integer >= " +
                               std::to_string(min_value) +
                               " (k/M/G suffixes allowed), got '" + v +
                               "'");
    return true;
}

AxisParam
u64Param(const char *key, const char *what,
         std::function<std::uint64_t &(RunConfig &)> field,
         std::uint64_t min_value = 1)
{
    AxisParam p;
    p.key = key;
    p.values = "integer (k/M/G suffixes)";
    p.what = what;
    p.apply = [field, min_value](RunConfig &cfg, const std::string &v,
                                 std::string *error) {
        std::uint64_t n = 0;
        if (!parseScaledAtLeast(v, n, error, min_value))
            return false;
        field(cfg) = n;
        return true;
    };
    p.scale = AxisScale::Linear;
    p.search_min = min_value;
    return p;
}

AxisParam
unsignedParam(const char *key, const char *what,
              std::function<unsigned &(RunConfig &)> field,
              std::uint64_t min_value = 1)
{
    AxisParam p;
    p.key = key;
    p.values = "integer (k/M/G suffixes)";
    p.what = what;
    p.apply = [field, min_value](RunConfig &cfg, const std::string &v,
                                 std::string *error) {
        std::uint64_t n = 0;
        if (!parseScaledAtLeast(v, n, error, min_value))
            return false;
        if (n > 0xffffffffull)
            return fail(error, "value '" + v + "' does not fit in 32 bits");
        field(cfg) = static_cast<unsigned>(n);
        return true;
    };
    p.scale = AxisScale::Linear;
    p.search_min = min_value;
    return p;
}

/** A whole-token double in [0, 1] into @p d. */
bool
parseFraction(const std::string &v, double &d)
{
    std::istringstream is(v);
    char trailing = 0;
    return is >> d && !(is >> trailing) && d >= 0.0 && d <= 1.0;
}

AxisParam
fracParam(const char *key, const char *what,
          std::function<double &(RunConfig &)> field)
{
    AxisParam p;
    p.key = key;
    p.values = "fraction in [0, 1]";
    p.what = what;
    p.apply = [field](RunConfig &cfg, const std::string &v,
                      std::string *error) {
        double d = 0.0;
        if (!parseFraction(v, d))
            return fail(error,
                        "expected a fraction in [0, 1], got '" + v + "'");
        field(cfg) = d;
        return true;
    };
    return p;
}

AxisParam
boolParam(const char *key, const char *what,
          std::function<void(RunConfig &, bool)> set)
{
    AxisParam p;
    p.key = key;
    p.values = "0|1|false|true|off|on";
    p.what = what;
    p.apply = [set](RunConfig &cfg, const std::string &v,
                    std::string *error) {
        bool b = false;
        if (!parseBoolWord(v, b))
            return fail(error, "expected a boolean, got '" + v + "'");
        set(cfg, b);
        return true;
    };
    return p;
}

/** A cache-model behaviour of Figure 1, switched on L1D, L1I and L2
 *  together: no study sets one level alone. */
AxisParam
cacheFlagParam(const char *key, const char *what,
               bool CacheParams::*flag)
{
    return boolParam(key, what, [flag](RunConfig &c, bool b) {
        HierarchyParams &h = c.system.hier;
        h.l1d.*flag = b;
        h.l1i.*flag = b;
        h.l2.*flag = b;
    });
}

/** The three cache levels share one parameter shape. */
void
addCacheParams(std::vector<AxisParam> &out, const char *level,
               std::function<CacheParams &(RunConfig &)> cache)
{
    const std::string prefix = std::string("hier.") + level + ".";
    const std::string name = level;
    out.push_back(u64Param(
        (prefix + "size").c_str(),
        (name + " capacity in bytes").c_str(),
        [cache](RunConfig &c) -> std::uint64_t & {
            return cache(c).size;
        }));
    // Sizes and associativities are power-of-two quantities: the
    // cache model requires a power-of-two set count, so "the next
    // size" means doubling, not +1 — searches must bisect these in
    // log space.
    out.back().scale = AxisScale::Pow2;
    out.push_back(unsignedParam(
        (prefix + "assoc").c_str(), (name + " associativity").c_str(),
        [cache](RunConfig &c) -> unsigned & { return cache(c).assoc; }));
    out.back().scale = AxisScale::Pow2;
    out.push_back(u64Param(
        (prefix + "latency").c_str(),
        (name + " access latency in cycles").c_str(),
        [cache](RunConfig &c) -> std::uint64_t & {
            return cache(c).latency;
        }));
    out.push_back(unsignedParam(
        (prefix + "mshrs").c_str(), (name + " MSHR count").c_str(),
        [cache](RunConfig &c) -> unsigned & { return cache(c).mshrs; }));
    out.push_back(unsignedParam(
        (prefix + "ports").c_str(), (name + " port count").c_str(),
        [cache](RunConfig &c) -> unsigned & { return cache(c).ports; }));
}

std::vector<AxisParam>
buildRegistry()
{
    std::vector<AxisParam> out;

    // Core (paper Table 1 knobs the sensitivity studies vary).
    out.push_back(unsignedParam(
        "core.rob", "reorder buffer (RUU) entries",
        [](RunConfig &c) -> unsigned & { return c.system.core.ruu_size; }));
    out.push_back(unsignedParam(
        "core.lsq", "load/store queue entries",
        [](RunConfig &c) -> unsigned & { return c.system.core.lsq_size; }));
    out.push_back(unsignedParam(
        "core.fetch_width", "instructions fetched per cycle",
        [](RunConfig &c) -> unsigned & {
            return c.system.core.fetch_width;
        }));
    out.push_back(unsignedParam(
        "core.commit_width", "instructions committed per cycle",
        [](RunConfig &c) -> unsigned & {
            return c.system.core.commit_width;
        }));
    out.push_back(fracParam(
        "core.mispredict_rate", "branch misprediction rate",
        [](RunConfig &c) -> double & {
            return c.system.core.mispredict_rate;
        }));
    out.push_back(u64Param(
        "core.mispredict_penalty", "misprediction recovery cycles",
        [](RunConfig &c) -> std::uint64_t & {
            return c.system.core.mispredict_penalty;
        }));

    // Cache hierarchy.
    addCacheParams(out, "l1d", [](RunConfig &c) -> CacheParams & {
        return c.system.hier.l1d;
    });
    addCacheParams(out, "l1i", [](RunConfig &c) -> CacheParams & {
        return c.system.hier.l1i;
    });
    addCacheParams(out, "l2", [](RunConfig &c) -> CacheParams & {
        return c.system.hier.l2;
    });
    // Figure 1's modelled behaviours; all off is SimpleScalar's
    // idealized cache (demand ports stay modelled either way).
    out.push_back(cacheFlagParam(
        "hier.finite_mshr",
        "bounded MSHRs on every cache (off = unlimited misses)",
        &CacheParams::finite_mshr));
    out.push_back(cacheFlagParam(
        "hier.pipeline_stalls",
        "a busy cache delays the requests behind it, up to the LSQ",
        &CacheParams::pipeline_stalls));
    out.push_back(cacheFlagParam(
        "hier.refill_uses_ports",
        "refills occupy cache ports like demand accesses",
        &CacheParams::refill_uses_ports));

    // Memory model (Figure 8: constant-memory vs SDRAM baselines).
    {
        AxisParam p;
        p.key = "hier.memory";
        p.values = "sdram|const";
        p.what = "main-memory model (detailed SDRAM or flat latency)";
        p.apply = [](RunConfig &cfg, const std::string &v,
                     std::string *error) {
            if (v == "sdram")
                cfg.system.hier.memory = MemoryModelKind::Sdram;
            else if (v == "const")
                cfg.system.hier.memory = MemoryModelKind::ConstantLatency;
            else
                return fail(error,
                            "expected 'sdram' or 'const', got '" + v +
                                "'");
            return true;
        };
        out.push_back(std::move(p));
    }
    out.push_back(u64Param(
        "hier.const_latency", "flat memory latency in cycles",
        [](RunConfig &c) -> std::uint64_t & {
            return c.system.hier.const_latency;
        }));
    out.push_back(unsignedParam(
        "hier.sdram.banks", "SDRAM bank count",
        [](RunConfig &c) -> unsigned & {
            return c.system.hier.sdram.banks;
        }));
    out.push_back(u64Param(
        "hier.sdram.cas_latency", "SDRAM CAS latency in cycles",
        [](RunConfig &c) -> std::uint64_t & {
            return c.system.hier.sdram.cas_latency;
        }));
    out.push_back(unsignedParam(
        "hier.sdram.queue", "SDRAM controller queue entries",
        [](RunConfig &c) -> unsigned & {
            return c.system.hier.sdram.queue_entries;
        }));
    {
        // Figure 8's "SDRAM at ~70 cycles" point scales the timings
        // set so far, so it composes with (and follows) any
        // hier.sdram.cas_latency setting in settings order.
        AxisParam p;
        p.key = "hier.sdram.timing_scale";
        p.values = "factor in (0, 1]";
        p.what = "multiply every SDRAM timing by this factor";
        p.apply = [](RunConfig &cfg, const std::string &v,
                     std::string *error) {
            double d = 0.0;
            if (!parseFraction(v, d) || d == 0.0)
                return fail(error, "expected a factor in (0, 1], got '" +
                                       v + "'");
            cfg.system.hier.sdram.scaleTimings(d);
            return true;
        };
        out.push_back(std::move(p));
    }

    // Trace window (Figure 11: selection and scaling studies).
    {
        AxisParam p;
        p.key = "window.selection";
        p.values = "simpoint|arbitrary";
        p.what = "trace window selection mode";
        p.apply = [](RunConfig &cfg, const std::string &v,
                     std::string *error) {
            if (v == "simpoint")
                cfg.selection = TraceSelection::SimPoint;
            else if (v == "arbitrary")
                cfg.selection = TraceSelection::Arbitrary;
            else
                return fail(error,
                            "expected 'simpoint' or 'arbitrary', got '" +
                                v + "'");
            return true;
        };
        out.push_back(std::move(p));
    }
    out.push_back(u64Param(
        "window.trace_length", "SimPoint window length in instructions",
        [](RunConfig &c) -> std::uint64_t & {
            return c.scale.simpoint_trace;
        }));
    out.push_back(u64Param(
        "window.interval", "SimPoint BBV interval in instructions",
        [](RunConfig &c) -> std::uint64_t & {
            return c.scale.simpoint_interval;
        }));
    out.push_back(unsignedParam(
        "window.k", "SimPoint k-means cluster count",
        [](RunConfig &c) -> unsigned & { return c.scale.simpoint_k; }));
    out.push_back(u64Param(
        "window.skip", "arbitrary-selection skip in instructions",
        [](RunConfig &c) -> std::uint64_t & {
            return c.scale.arbitrary_skip;
        },
        0));
    out.push_back(u64Param(
        "window.length", "arbitrary-selection length in instructions",
        [](RunConfig &c) -> std::uint64_t & {
            return c.scale.arbitrary_length;
        }));

    // Mechanism options.
    out.push_back(unsignedParam(
        "mech.tcp_buffer", "TCP prefetch buffer entries",
        [](RunConfig &c) -> unsigned & { return c.mech.tcp_buffer; }));
    out.push_back(boolParam(
        "mech.second_guess", "build mechanisms from the documented "
                             "wrong guesses (Figures 2/3)",
        [](RunConfig &c, bool b) { c.mech.second_guess = b; }));

    return out;
}

/** Every registered key, comma-joined — the "useful error" payload
 *  for an unknown axis key. */
const std::string &
knownKeysLine()
{
    static const std::string line = [] {
        std::string s;
        for (const auto &p : axisRegistry()) {
            if (!s.empty())
                s += ", ";
            s += p.key;
        }
        return s;
    }();
    return line;
}

bool
knownBenchmark(const std::string &name)
{
    for (const auto &b : specBenchmarkNames())
        if (b == name)
            return true;
    for (const auto &b : extraBenchmarkNames())
        if (b == name)
            return true;
    return false;
}

bool
knownMechanism(const std::string &name)
{
    for (const auto &m : allMechanismNames())
        if (m == name)
            return true;
    return false;
}

/** Validate one key=value against the registry on a scratch config,
 *  so a bad spec fails at parse time, not mid-sweep. */
bool
checkSetting(const std::string &key, const std::string &value,
             std::string *error)
{
    const AxisParam *param = findAxisParam(key);
    if (!param)
        return fail(error, "unknown axis key '" + key +
                               "' (known keys: " + knownKeysLine() +
                               ")");
    RunConfig scratch;
    std::string why;
    if (!param->apply(scratch, value, &why))
        return fail(error, key + ": " + why);
    return true;
}

/** Split on any whitespace. */
std::vector<std::string>
tokens(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream is(line);
    std::string tok;
    while (is >> tok)
        out.push_back(std::move(tok));
    return out;
}

} // namespace

const std::vector<AxisParam> &
axisRegistry()
{
    static const std::vector<AxisParam> registry = buildRegistry();
    return registry;
}

const AxisParam *
findAxisParam(const std::string &key)
{
    for (const auto &p : axisRegistry())
        if (p.key == key)
            return &p;
    return nullptr;
}

bool
SweepSpec::setBenchmarks(std::vector<std::string> b, std::string *error)
{
    for (const auto &name : b)
        if (!knownBenchmark(name))
            return fail(error, "unknown benchmark '" + name + "'");
    _benchmarks = std::move(b);
    return true;
}

bool
SweepSpec::setMechanisms(std::vector<std::string> m, std::string *error)
{
    for (const auto &name : m)
        if (!knownMechanism(name))
            return fail(error, "unknown mechanism '" + name + "'");
    _mechanisms = std::move(m);
    return true;
}

bool
SweepSpec::addBase(const std::string &key, const std::string &value,
                   std::string *error)
{
    if (!checkSetting(key, value, error))
        return false;
    _base.push_back({key, value});
    return true;
}

bool
SweepSpec::addAxis(const std::string &key,
                   const std::vector<std::string> &values,
                   std::string *error)
{
    if (values.empty())
        return fail(error, "axis '" + key + "' has no values");
    for (const auto &a : _axes)
        if (a.key == key)
            return fail(error, "duplicate axis '" + key + "'");
    for (const auto &v : values)
        if (!checkSetting(key, v, error))
            return false;
    std::size_t count = values.size();
    for (const auto &a : _axes)
        count *= a.values.size();
    if (count > max_variants)
        return fail(error, "axis '" + key + "' expands the sweep to " +
                               std::to_string(count) +
                               " variants (limit " +
                               std::to_string(max_variants) + ")");
    _axes.push_back({key, values});
    return true;
}

bool
SweepSpec::parse(const std::string &text, SweepSpec &out,
                 std::string *error)
{
    SweepSpec spec;
    std::istringstream is(text);
    std::string raw;
    std::size_t lineno = 0;
    bool saw_header = false;

    auto lineFail = [&](const std::string &msg) {
        return fail(error,
                    "spec line " + std::to_string(lineno) + ": " + msg);
    };

    while (std::getline(is, raw)) {
        ++lineno;
        const auto hash_pos = raw.find('#');
        if (hash_pos != std::string::npos)
            raw.erase(hash_pos);
        const std::vector<std::string> tok = tokens(raw);
        if (tok.empty())
            continue;

        if (!saw_header) {
            if (tok.size() != 2 || tok[0] != "sweep-spec" ||
                tok[1] != "v" + std::to_string(sweep_hash_version))
                return lineFail("expected header 'sweep-spec v1'");
            saw_header = true;
            continue;
        }

        if (tok[0] == "bench" || tok[0] == "mech") {
            if (tok.size() < 2)
                return lineFail("'" + tok[0] +
                                "' needs at least one name");
            // Repeated lines append.
            const bool bench = tok[0] == "bench";
            std::vector<std::string> names =
                bench ? spec._benchmarks : spec._mechanisms;
            names.insert(names.end(), tok.begin() + 1, tok.end());
            std::string why;
            if (!(bench ? spec.setBenchmarks(std::move(names), &why)
                        : spec.setMechanisms(std::move(names), &why)))
                return lineFail(why);
        } else if (tok[0] == "base") {
            if (tok.size() != 2)
                return lineFail("'base' wants exactly one key=value");
            const auto eq = tok[1].find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 >= tok[1].size())
                return lineFail("'base' wants key=value, got '" +
                                tok[1] + "'");
            std::string why;
            if (!spec.addBase(tok[1].substr(0, eq),
                              tok[1].substr(eq + 1), &why))
                return lineFail(why);
        } else if (tok[0] == "axis") {
            if (tok.size() < 3)
                return lineFail("'axis' wants a key and at least one "
                                "value");
            std::string why;
            if (!spec.addAxis(
                    tok[1],
                    std::vector<std::string>(tok.begin() + 2, tok.end()),
                    &why))
                return lineFail(why);
        } else {
            return lineFail("unknown directive '" + tok[0] +
                            "' (expected bench/mech/base/axis)");
        }
    }

    if (!saw_header)
        return fail(error, "empty spec: missing 'sweep-spec v1' header");
    if (spec._benchmarks.empty())
        return fail(error, "spec declares no benchmarks ('bench' line)");
    if (spec._mechanisms.empty())
        return fail(error, "spec declares no mechanisms ('mech' line)");

    out = std::move(spec);
    return true;
}

bool
SweepSpec::load(const std::string &path, SweepSpec &out,
                std::string *error)
{
    std::ifstream in(path);
    if (!in)
        return fail(error, "cannot read spec file: " + path);
    std::ostringstream text;
    text << in.rdbuf();
    if (!parse(text.str(), out, error)) {
        if (error)
            *error = path + ": " + *error;
        return false;
    }
    return true;
}

std::string
SweepSpec::canonicalText() const
{
    std::string out =
        "sweep-spec v" + std::to_string(sweep_hash_version) + "\n";
    out += "bench";
    for (const auto &b : _benchmarks) {
        out += ' ';
        out += b;
    }
    out += "\nmech";
    for (const auto &m : _mechanisms) {
        out += ' ';
        out += m;
    }
    out += '\n';
    for (const auto &s : _base) {
        out += "base ";
        out += s.key;
        out += '=';
        out += s.value;
        out += '\n';
    }
    for (const auto &a : _axes) {
        out += "axis ";
        out += a.key;
        for (const auto &v : a.values) {
            out += ' ';
            out += v;
        }
        out += '\n';
    }
    return out;
}

std::uint64_t
SweepSpec::hash() const
{
    Fingerprint fp;
    fp.mix(canonicalText());
    return fp.value();
}

std::size_t
SweepSpec::variantCount() const
{
    std::size_t count = 1;
    for (const auto &a : _axes)
        count *= a.values.size();
    return count;
}

std::vector<ConfigVariant>
SweepSpec::variants() const
{
    std::vector<ConfigVariant> out;
    const std::size_t total = variantCount();
    out.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
        ConfigVariant v;
        // First axis slowest: decompose i with the last axis as the
        // fastest-varying digit, like nested loops in declared order.
        std::size_t rest = i;
        std::vector<std::size_t> digit(_axes.size(), 0);
        for (std::size_t a = _axes.size(); a-- > 0;) {
            digit[a] = rest % _axes[a].values.size();
            rest /= _axes[a].values.size();
        }
        for (std::size_t a = 0; a < _axes.size(); ++a) {
            v.settings.push_back(
                {_axes[a].key, _axes[a].values[digit[a]]});
            if (!v.name.empty())
                v.name += ',';
            v.name += _axes[a].key;
            v.name += '=';
            v.name += _axes[a].values[digit[a]];
        }
        if (v.name.empty())
            v.name = "base";
        out.push_back(std::move(v));
    }
    return out;
}

bool
SweepSpec::axisSlice(const std::vector<std::string> &mechanisms,
                     const std::string &axis_key,
                     const std::vector<std::string> &values,
                     SweepSpec &out, std::string *error) const
{
    if (values.empty())
        return fail(error, "axisSlice: no values for axis '" +
                               axis_key + "'");
    SweepSpec slice;
    slice._benchmarks = _benchmarks;
    slice._mechanisms = mechanisms;
    slice._base = _base;
    for (const auto &a : _axes) {
        if (a.key == axis_key)
            continue;
        if (!slice.addBase(a.key, a.values.front(), error))
            return false;
    }
    if (!slice.addAxis(axis_key, values, error))
        return false;
    out = std::move(slice);
    return true;
}

RunConfig
SweepSpec::resolve(const ConfigVariant &variant) const
{
    RunConfig cfg;
    auto applyOne = [&](const AxisSetting &s) {
        const AxisParam *param = findAxisParam(s.key);
        if (!param)
            fatal("SweepSpec::resolve: unknown axis key '", s.key, "'");
        std::string why;
        if (!param->apply(cfg, s.value, &why))
            fatal("SweepSpec::resolve: ", s.key, "=", s.value, ": ",
                  why);
    };
    for (const auto &s : _base)
        applyOne(s);
    for (const auto &s : variant.settings)
        applyOne(s);
    return cfg;
}

Table
sensitivityTable(const SweepResult &res)
{
    if (res.matrices.empty())
        return Table("sensitivity (empty sweep)");
    const MatrixResult &first = res.matrices.front();
    const bool vs_base =
        std::find(first.mechanisms.begin(), first.mechanisms.end(),
                  "Base") != first.mechanisms.end();
    const std::size_t base_row =
        vs_base ? first.mechIndex("Base") : 0;

    // Built row by row rather than through crossTable: a cell whose
    // mean draws on any quarantined (benchmark, mechanism) result —
    // the Base row included, for speedups — has no honest number and
    // renders as FAULT instead. Cell text is otherwise identical to
    // the crossTable form (Table::num, default precision), so a
    // fault-free sweep renders byte-identically to before.
    Table t(vs_base ? "config sensitivity: mean speedup vs Base"
                    : "config sensitivity: mean IPC");
    std::vector<std::string> header;
    header.push_back("mechanism");
    header.insert(header.end(), res.variants.begin(),
                  res.variants.end());
    t.header(std::move(header));
    for (std::size_t row = 0; row < first.mechanisms.size(); ++row) {
        std::vector<std::string> cells;
        cells.push_back(first.mechanisms[row]);
        for (std::size_t v = 0; v < res.matrices.size(); ++v) {
            const MatrixResult &m = res.matrices[v];
            bool faulted = false;
            for (std::size_t b = 0; b < m.benchmarks.size(); ++b)
                if (m.faulted(row, b) ||
                    (vs_base && m.faulted(base_row, b)))
                    faulted = true;
            if (faulted) {
                cells.push_back("FAULT");
                continue;
            }
            double value = 0.0;
            if (vs_base) {
                value = m.avgSpeedup(row);
            } else {
                double sum = 0.0;
                for (std::size_t b = 0; b < m.benchmarks.size(); ++b)
                    sum += m.ipc[row][b];
                value = m.benchmarks.empty()
                            ? 0.0
                            : sum / static_cast<double>(
                                        m.benchmarks.size());
            }
            cells.push_back(Table::num(value));
        }
        t.row(std::move(cells));
    }
    return t;
}

} // namespace microlib

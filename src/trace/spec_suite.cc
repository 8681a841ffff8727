#include "trace/spec_suite.hh"

#include <map>

#include "sim/logging.hh"

namespace microlib
{

namespace
{

constexpr std::uint64_t KiB = 1024;
constexpr std::uint64_t MiB = 1024 * 1024;

/** Convenience builders for kernel factories. */
auto
stream(Addr base, std::uint64_t bytes, std::int64_t stride,
       double write_frac = 0.0, ValueMode vm = ValueMode::Garbage)
{
    StreamKernel::Params p;
    p.base = base;
    p.bytes = bytes;
    p.stride = stride;
    p.write_frac = write_frac;
    p.values = vm;
    return [p] { return std::unique_ptr<PatternKernel>(
        new StreamKernel(p)); };
}

auto
multi(Addr base, std::uint64_t array_bytes,
      std::vector<std::int64_t> strides, bool write_stream = true,
      ValueMode vm = ValueMode::Garbage)
{
    MultiStrideKernel::Params p;
    p.base = base;
    p.array_bytes = array_bytes;
    p.strides = std::move(strides);
    p.has_write_stream = write_stream;
    p.values = vm;
    return [p] { return std::unique_ptr<PatternKernel>(
        new MultiStrideKernel(p)); };
}

auto
chase(Addr base, std::uint64_t node_bytes, std::uint64_t node_count,
      std::uint64_t next_offset, double shuffle, double payload_touches,
      ValueMode payload_vm = ValueMode::Garbage, double write_frac = 0.1,
      unsigned chains = 1)
{
    PointerChaseKernel::Params p;
    p.base = base;
    p.node_bytes = node_bytes;
    p.node_count = node_count;
    p.next_offset = next_offset;
    p.shuffle = shuffle;
    p.payload_touches = payload_touches;
    p.payload_values = payload_vm;
    p.write_frac = write_frac;
    p.chains = chains;
    return [p] { return std::unique_ptr<PatternKernel>(
        new PointerChaseKernel(p)); };
}

auto
markov(Addr base, std::uint64_t states, std::uint64_t state_bytes,
       unsigned fanout, double primary, ValueMode vm = ValueMode::Frequent)
{
    MarkovChainKernel::Params p;
    p.base = base;
    p.states = states;
    p.state_bytes = state_bytes;
    p.fanout = fanout;
    p.primary_prob = primary;
    p.values = vm;
    return [p] { return std::unique_ptr<PatternKernel>(
        new MarkovChainKernel(p)); };
}

auto
randomK(Addr base, std::uint64_t bytes, double write_frac = 0.2,
        ValueMode vm = ValueMode::Garbage)
{
    RandomKernel::Params p;
    p.base = base;
    p.bytes = bytes;
    p.write_frac = write_frac;
    p.values = vm;
    return [p] { return std::unique_ptr<PatternKernel>(
        new RandomKernel(p)); };
}

auto
hotcold(Addr base, std::uint64_t hot, std::uint64_t cold,
        double hot_frac, double write_frac = 0.3,
        ValueMode vm = ValueMode::Frequent)
{
    HotColdKernel::Params p;
    p.base = base;
    p.hot_bytes = hot;
    p.cold_bytes = cold;
    p.hot_frac = hot_frac;
    p.write_frac = write_frac;
    p.values = vm;
    return [p] { return std::unique_ptr<PatternKernel>(
        new HotColdKernel(p)); };
}

auto
gather(Addr base, std::uint64_t index_entries, std::uint64_t table_bytes,
       bool clustered, double write_frac = 0.05,
       ValueMode vm = ValueMode::Garbage)
{
    GatherKernel::Params p;
    p.base = base;
    p.index_entries = index_entries;
    p.table_bytes = table_bytes;
    p.clustered = clustered;
    p.write_frac = write_frac;
    p.values = vm;
    return [p] { return std::unique_ptr<PatternKernel>(
        new GatherKernel(p)); };
}

/** Shorthand for a segment list looping from index @p loop_from. */
SpecProgram
base(const std::string &name, std::uint64_t seed, double mem_ratio,
     double fp_frac)
{
    SpecProgram p;
    p.name = name;
    p.seed = seed;
    p.mem_ratio = mem_ratio;
    p.fp_frac = fp_frac;
    p.nominal_length = 16'000'000;
    return p;
}

std::vector<SpecProgram>
buildSuite()
{
    std::vector<SpecProgram> suite;
    const Addr B = heap_base;

    // Footprints are sized for the 1:250 trace scale (TraceScale in
    // core/baseline_config.hh: 2 M instructions stand for 500 M):
    // large enough that the aggregate working set dwarfs the 1 MB L2,
    // small enough that arrays and pointer cycles are revisited a few
    // times inside a 2 M-instruction window — history-based
    // mechanisms (Markov, DBCP, TK, TCP) need those revisits exactly
    // as they need them across a full SPEC run.

    // ----------------------------------------------------------- ammp
    // Molecular dynamics over linked structs; the next pointer sits
    // 88 bytes into a 128-byte node, one line past what a 64 B-line
    // CDP prefetch brings in (the paper's CDP failure case). The
    // 3 MB chase cycle repeats ~3x per window, so miss sequences
    // recur and Markov-style correlation wins here (paper: Markov
    // outperforms all others on ammp).
    {
        auto p = base("ammp", 101, 0.34, 0.55);
        p.stack_frac = 0.45;
        p.kernels = {
            chase(B, 128, 24 * 1024, 88, 1.0, 0.6, ValueMode::Pointer),
            stream(B + 64 * MiB, 1 * MiB, 8, 0.2),
        };
        p.segments = {{0, 1'500'000}, {1, 300'000}};
        suite.push_back(std::move(p));
    }

    // ---------------------------------------------------------- applu
    // Implicit CFD solver: several strided array sweeps plus a write
    // stream; classic stride-prefetcher food, memory bound.
    {
        auto p = base("applu", 102, 0.38, 0.65);
        p.stack_frac = 0.40;
        p.kernels = {
            multi(B, 768 * KiB, {8, 8, 40, 8}),
            multi(B + 64 * MiB, 512 * KiB, {8, 8}),
        };
        p.segments = {{0, 2'000'000}, {1, 500'000}};
        suite.push_back(std::move(p));
    }

    // ----------------------------------------------------------- apsi
    // Meteorology code: mixed-stride sweeps with phase alternation;
    // high mechanism sensitivity in the paper.
    {
        auto p = base("apsi", 103, 0.36, 0.6);
        p.stack_frac = 0.42;
        p.kernels = {
            multi(B, 768 * KiB, {8, 24, 8}),
            multi(B + 64 * MiB, 1 * MiB, {96, 8}),
            stream(B + 128 * MiB, 512 * KiB, 8, 0.4),
        };
        p.segments = {{0, 900'000}, {1, 700'000}, {2, 400'000}};
        suite.push_back(std::move(p));
    }

    // ------------------------------------------------------------ art
    // Neural-net image recognition: repeated sweeps of an index array
    // gathering from an L2-straddling codebook; very sensitive to
    // prefetching and to the TCP buffer pathology (Fig. 10).
    {
        auto p = base("art", 104, 0.42, 0.5);
        p.stack_frac = 0.45;
        p.kernels = {
            gather(B, 1 << 15, 1536 * KiB, true, 0.05),
            stream(B + 32 * MiB, 512 * KiB, 8, 0.1),
        };
        p.segments = {{0, 1'200'000}, {1, 300'000}};
        suite.push_back(std::move(p));
    }

    // --------------------------------------------------------- equake
    // Earthquake FEM: sparse-matrix pointer structure walked in a
    // repeatable order plus dense vectors; the pointer loads make it
    // one of the benchmarks CDP actually helps (paper: 1.11).
    {
        auto p = base("equake", 105, 0.40, 0.6);
        p.stack_frac = 0.45;
        p.kernels = {
            chase(B, 64, 48 * 1024, 0, 0.4, 1.0, ValueMode::Garbage),
            multi(B + 64 * MiB, 768 * KiB, {8, 8}),
        };
        p.segments = {{0, 1'000'000}, {1, 600'000}};
        suite.push_back(std::move(p));
    }

    // -------------------------------------------------------- facerec
    // Face recognition: 2D correlation sweeps (unit + row strides).
    {
        auto p = base("facerec", 106, 0.35, 0.65);
        p.stack_frac = 0.45;
        p.kernels = {
            multi(B, 1 * MiB, {8, 1024}),
            hotcold(B + 64 * MiB, 256 * KiB, 2 * MiB, 0.9, 0.1),
        };
        p.segments = {{0, 1'400'000}, {1, 400'000}};
        suite.push_back(std::move(p));
    }

    // ---------------------------------------------------------- fma3d
    // Crash simulation: many arrays with mixed strides, strong write
    // traffic; highly sensitive to data-cache optimizations.
    {
        auto p = base("fma3d", 107, 0.37, 0.6);
        p.stack_frac = 0.42;
        p.kernels = {
            multi(B, 1 * MiB, {8, 8, 56, 8}, true),
            stream(B + 64 * MiB, 1 * MiB, 8, 0.5),
        };
        p.segments = {{0, 1'600'000}, {1, 400'000}};
        suite.push_back(std::move(p));
    }

    // --------------------------------------------------------- galgel
    // Fluid dynamics (Galerkin): blocked dense algebra, mostly cache
    // resident with periodic spills.
    {
        auto p = base("galgel", 108, 0.33, 0.7);
        p.stack_frac = 0.6;
        p.kernels = {
            hotcold(B, 512 * KiB, 4 * MiB, 0.93, 0.2),
            multi(B + 64 * MiB, 512 * KiB, {8, 8}),
        };
        p.segments = {{0, 1'200'000}, {1, 300'000}};
        suite.push_back(std::move(p));
    }

    // ---------------------------------------------------------- lucas
    // Lucas-Lehmer FFT: huge power-of-two strides that hammer the
    // same SDRAM rows/banks — the paper's worst-case DRAM latency
    // benchmark (389-cycle average) and the one where GHB's extra
    // traffic turns a speedup into a 0.76 slowdown.
    {
        auto p = base("lucas", 109, 0.40, 0.7);
        p.stack_frac = 0.35;
        p.kernels = {
            multi(B, 8 * MiB, {8192, 8192 + 64, 8}, true),
            // Bit-reversal reordering phase: row-granular pseudo-
            // random traffic that defeats every row buffer and backs
            // up the controller queue — the source of lucas's
            // pathological average latency.
            randomK(B + 64 * MiB, 16 * MiB, 0.3),
        };
        p.segments = {{0, 1'200'000}, {1, 1'000'000}};
        suite.push_back(std::move(p));
    }

    // ----------------------------------------------------------- mesa
    // Software OpenGL: compute bound, small hot data.
    {
        auto p = base("mesa", 110, 0.24, 0.5);
        p.stack_frac = 0.72;
        p.kernels = {
            hotcold(B, 192 * KiB, 2 * MiB, 0.97, 0.3),
        };
        p.segments = {{0, 1'000'000}};
        suite.push_back(std::move(p));
    }

    // ---------------------------------------------------------- mgrid
    // Multigrid solver: textbook stencil streams at several scales;
    // among the most prefetch-sensitive codes in the suite.
    {
        auto p = base("mgrid", 111, 0.41, 0.7);
        p.stack_frac = 0.40;
        p.kernels = {
            multi(B, 1 * MiB, {8, 8, 2048, 2048}, true),
            multi(B + 64 * MiB, 768 * KiB, {8, 512}, true),
        };
        p.segments = {{0, 1'800'000}, {1, 600'000}};
        suite.push_back(std::move(p));
    }

    // ------------------------------------------------------- sixtrack
    // Particle tracking: compute bound, cache resident.
    {
        auto p = base("sixtrack", 112, 0.22, 0.65);
        p.stack_frac = 0.72;
        p.kernels = {
            hotcold(B, 384 * KiB, 1 * MiB, 0.98, 0.2),
        };
        p.segments = {{0, 1'000'000}};
        suite.push_back(std::move(p));
    }

    // ----------------------------------------------------------- swim
    // Shallow-water stencil: three big arrays swept with unit and
    // row strides plus a write stream; memory bound, prefetch heaven.
    {
        auto p = base("swim", 113, 0.44, 0.7);
        p.stack_frac = 0.40;
        p.kernels = {
            multi(B, 1536 * KiB, {8, 8, 3072}, true),
        };
        p.segments = {{0, 1'000'000}};
        suite.push_back(std::move(p));
    }

    // -------------------------------------------------------- wupwise
    // Lattice QCD dense algebra: blocked, cache friendly — the
    // paper's lowest-sensitivity FP benchmark.
    {
        auto p = base("wupwise", 114, 0.30, 0.7);
        p.stack_frac = 0.75;
        p.kernels = {
            hotcold(B, 640 * KiB, 2 * MiB, 0.985, 0.25),
        };
        p.segments = {{0, 1'000'000}};
        suite.push_back(std::move(p));
    }

    // ---------------------------------------------------------- bzip2
    // Block-sorting compressor: working set mostly inside L2.
    {
        auto p = base("bzip2", 115, 0.32, 0.0);
        p.stack_frac = 0.72;
        p.kernels = {
            hotcold(B, 700 * KiB, 3 * MiB, 0.975, 0.35),
            stream(B + 32 * MiB, 512 * KiB, 8, 0.5,
                   ValueMode::Frequent),
        };
        p.segments = {{0, 1'200'000}, {1, 200'000}};
        suite.push_back(std::move(p));
    }

    // --------------------------------------------------------- crafty
    // Chess search: hash tables + small hot state; low sensitivity.
    {
        auto p = base("crafty", 116, 0.28, 0.0);
        p.stack_frac = 0.78;
        p.kernels = {
            hotcold(B, 256 * KiB, 2 * MiB, 0.985, 0.3),
        };
        p.segments = {{0, 1'000'000}};
        suite.push_back(std::move(p));
    }

    // ------------------------------------------------------------ eon
    // Ray tracer (C++): small scene data, compute bound.
    {
        auto p = base("eon", 117, 0.26, 0.1);
        p.stack_frac = 0.78;
        p.kernels = {
            hotcold(B, 200 * KiB, 1 * MiB, 0.99, 0.25),
        };
        p.segments = {{0, 1'000'000}};
        suite.push_back(std::move(p));
    }

    // ------------------------------------------------------------ gap
    // Group theory interpreter: large table-driven workloads with
    // clustered gathers; high sensitivity in the paper.
    {
        auto p = base("gap", 118, 0.38, 0.0);
        p.stack_frac = 0.50;
        p.kernels = {
            gather(B, 1 << 16, 6 * MiB, true, 0.15),
            hotcold(B + 64 * MiB, 128 * KiB, 1 * MiB, 0.9, 0.3),
        };
        p.segments = {{0, 1'400'000}, {1, 300'000}};
        suite.push_back(std::move(p));
    }

    // ------------------------------------------------------------ gcc
    // Compiler: many short phases over many data structures and a
    // large instruction footprint (code_spread models it).
    {
        auto p = base("gcc", 119, 0.33, 0.0);
        p.stack_frac = 0.55;
        p.code_spread = 96;
        p.branch_frac = 0.3;
        p.kernels = {
            chase(B, 64, 24 * 1024, 8, 0.8, 1.0, ValueMode::Pointer),
            hotcold(B + 32 * MiB, 256 * KiB, 4 * MiB, 0.9, 0.3),
            stream(B + 64 * MiB, 512 * KiB, 8, 0.4,
                   ValueMode::Frequent),
            randomK(B + 96 * MiB, 2 * MiB, 0.2),
        };
        p.segments = {{0, 400'000}, {1, 500'000}, {2, 300'000},
                      {3, 300'000}, {1, 400'000}};
        suite.push_back(std::move(p));
    }

    // ----------------------------------------------------------- gzip
    // LZ77 compressor: sliding-window references repeat with high
    // probability — exactly the first-order correlation a Markov
    // prefetcher learns (the paper: Markov wins on gzip).
    {
        auto p = base("gzip", 120, 0.36, 0.0);
        p.stack_frac = 0.55;
        p.kernels = {
            // 256 KB of window states: L2-resident (the paper reports
            // gzip's DRAM latency as the lowest of the suite), so the
            // serialized L1 misses are what correlation prefetching
            // into the L1-side buffer accelerates.
            markov(B, 4096, 64, 2, 0.85, ValueMode::Frequent),
            hotcold(B + 16 * MiB, 128 * KiB, 512 * KiB, 0.95, 0.4),
        };
        p.segments = {{0, 1'200'000}, {1, 300'000}};
        suite.push_back(std::move(p));
    }

    // ------------------------------------------------------------ mcf
    // Single-source shortest paths over a huge node graph: the
    // pointer-chasing nightmare. The 32 MB graph never repeats
    // inside a window, and node payloads are full of pointers that
    // are *not* followed next, so content-directed prefetching
    // floods the bus with useless lines (paper: CDP 0.75 slowdown).
    {
        auto p = base("mcf", 121, 0.42, 0.0);
        p.stack_frac = 0.40;
        p.kernels = {
            chase(B, 128, 256 * 1024, 0, 0.6, 2.5,
                  ValueMode::Pointer, 0.15),
            stream(B + 64 * MiB, 1 * MiB, 8, 0.2),
        };
        p.segments = {{0, 1'700'000}, {1, 300'000}};
        suite.push_back(std::move(p));
    }

    // --------------------------------------------------------- parser
    // Dictionary/linkage parser: medium pointer structures plus a
    // hot dictionary.
    {
        auto p = base("parser", 122, 0.35, 0.0);
        p.stack_frac = 0.55;
        p.kernels = {
            chase(B, 64, 48 * 1024, 0, 0.7, 1.2,
                  ValueMode::Frequent),
            hotcold(B + 32 * MiB, 384 * KiB, 2 * MiB, 0.92, 0.3),
        };
        p.segments = {{0, 800'000}, {1, 800'000}};
        suite.push_back(std::move(p));
    }

    // -------------------------------------------------------- perlbmk
    // Perl interpreter: hot interpreter loop, low miss rate.
    {
        auto p = base("perlbmk", 123, 0.30, 0.0);
        p.stack_frac = 0.78;
        p.code_spread = 32;
        p.kernels = {
            hotcold(B, 300 * KiB, 2 * MiB, 0.985, 0.35),
        };
        p.segments = {{0, 1'000'000}};
        suite.push_back(std::move(p));
    }

    // ---------------------------------------------------------- twolf
    // Place & route: pointer-based netlist walked in a stable order;
    // the 2 MB cycle repeats several times per window — the paper's
    // other CDP beneficiary (1.07).
    {
        auto p = base("twolf", 124, 0.37, 0.0);
        p.stack_frac = 0.55;
        p.kernels = {
            chase(B, 64, 32 * 1024, 0, 0.5, 1.5, ValueMode::Garbage),
            randomK(B + 32 * MiB, 1 * MiB, 0.25),
        };
        p.segments = {{0, 1'300'000}, {1, 300'000}};
        suite.push_back(std::move(p));
    }

    // --------------------------------------------------------- vortex
    // Object database: resident B-trees; low sensitivity.
    {
        auto p = base("vortex", 125, 0.31, 0.0);
        p.stack_frac = 0.75;
        p.kernels = {
            hotcold(B, 512 * KiB, 3 * MiB, 0.98, 0.3),
        };
        p.segments = {{0, 1'000'000}};
        suite.push_back(std::move(p));
    }

    // ------------------------------------------------------------ vpr
    // FPGA place & route: pointer structures plus randomized swaps.
    {
        auto p = base("vpr", 126, 0.36, 0.0);
        p.stack_frac = 0.55;
        p.kernels = {
            chase(B, 64, 24 * 1024, 0, 0.9, 1.0, ValueMode::Garbage),
            randomK(B + 16 * MiB, 1536 * KiB, 0.3),
            hotcold(B + 64 * MiB, 192 * KiB, 1 * MiB, 0.9, 0.3),
        };
        p.segments = {{0, 600'000}, {1, 500'000}, {2, 400'000}};
        suite.push_back(std::move(p));
    }

    return suite;
}

/**
 * Extra workloads beyond Table 4 (see spec_suite.hh). pchase is the
 * memory-latency-bound scenario: a 6 MB shuffled pointer cycle whose
 * serialized link loads expose every miss (chains = 1, zero MLP) for
 * the bulk of each pass, followed by a shorter four-chain phase where
 * independent chains overlap in the machine. Latency-reducing
 * configuration changes (L2 size, SDRAM timings, constant-latency
 * memory) move it far more than bandwidth ones — the scenario the
 * config-axis sensitivity sweeps need.
 */
std::vector<SpecProgram>
buildExtras()
{
    std::vector<SpecProgram> extras;
    const Addr B = heap_base;
    {
        auto p = base("pchase", 201, 0.40, 0.0);
        p.stack_frac = 0.25;
        p.kernels = {
            // Single chain: 96k x 64 B nodes = 6 MB, fully shuffled,
            // few payload touches — almost every reference is the
            // serially dependent link load.
            chase(B, 64, 96 * 1024, 0, 1.0, 0.2, ValueMode::Pointer,
                  0.05),
            // Four independent chains over a second region: same
            // footprint per chain, but the chains overlap in the
            // machine (MemRef::dep_key), so this phase recovers MLP.
            chase(B + 64 * MiB, 64, 96 * 1024, 0, 1.0, 0.2,
                  ValueMode::Pointer, 0.05, 4),
        };
        p.segments = {{0, 1'400'000}, {1, 400'000}};
        extras.push_back(std::move(p));
    }
    return extras;
}

const std::vector<std::string> fp_names = {
    "ammp", "applu", "apsi", "art", "equake", "facerec", "fma3d",
    "galgel", "lucas", "mesa", "mgrid", "sixtrack", "swim", "wupwise",
};

const std::vector<SpecProgram> &
extraSuite()
{
    static const std::vector<SpecProgram> extras = buildExtras();
    return extras;
}

} // namespace

const std::vector<SpecProgram> &
specSuite()
{
    static const std::vector<SpecProgram> suite = buildSuite();
    return suite;
}

const std::vector<std::string> &
specBenchmarkNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &p : specSuite())
            out.push_back(p.name);
        return out;
    }();
    return names;
}

const SpecProgram &
specProgram(const std::string &name)
{
    for (const auto &p : specSuite())
        if (p.name == name)
            return p;
    for (const auto &p : extraSuite())
        if (p.name == name)
            return p;
    fatal("unknown benchmark: ", name);
}

const std::vector<std::string> &
extraBenchmarkNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &p : extraSuite())
            out.push_back(p.name);
        return out;
    }();
    return names;
}

bool
isFpBenchmark(const std::string &name)
{
    for (const auto &n : fp_names)
        if (n == name)
            return true;
    return false;
}

} // namespace microlib

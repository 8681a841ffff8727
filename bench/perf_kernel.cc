/**
 * @file
 * Simulator-kernel micro-benchmarks (engineering health, not a paper
 * figure): throughput of the cache model, DRAM model, trace
 * generator and the full simulation loop, via google-benchmark.
 *
 * Pass --benchmark_out=BENCH_kernel.json --benchmark_out_format=json
 * to record a point of the tracked perf trajectory; without
 * --benchmark_out nothing is written. Allocation-sensitive
 * benchmarks report an `allocs_per_iter` counter measured through an
 * instrumented global operator new, so "the miss path never
 * heap-allocates" is an asserted number, not a code-review claim.
 */

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <deque>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "core/baseline_config.hh"
#include "core/registry.hh"
#include "core/scheduler.hh"
#include "core/sweep_spec.hh"
#include "cpu/lockstep.hh"
#include "cpu/ooo_core.hh"
#include "mem/const_memory.hh"
#include "mem/hierarchy.hh"
#include "sim/random.hh"
#include "trace/generator.hh"
#include "trace/spec_suite.hh"
#include "trace/trace_arena.hh"
#include "trace/window.hh"

using namespace microlib;

// ---------------------------------------------------------------------
// Allocation instrumentation: every path through global operator new
// bumps a thread-local counter. Benchmarks snapshot the counter around
// their measurement loop to report allocations per iteration.

namespace
{
thread_local std::uint64_t t_alloc_count = 0;

void *
countedAlloc(std::size_t size)
{
    ++t_alloc_count;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    ++t_alloc_count;
    if (void *p = std::aligned_alloc(align, ((size + align - 1) / align) * align))
        return p;
    throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace
{

void
BM_CacheAccess(benchmark::State &state)
{
    CacheParams p;
    p.name = "bm";
    p.size = 32 * 1024;
    p.line = 32;
    p.assoc = 1;
    Cache cache(p, nullptr, nullptr);
    Rng rng(7);
    Cycle t = 0;
    for (auto _ : state) {
        MemRequest req;
        req.addr = rng.nextBounded(1 << 20) * 8;
        req.kind = AccessKind::DemandRead;
        req.when = ++t;
        benchmark::DoNotOptimize(cache.access(req));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_CacheInstall(benchmark::State &state)
{
    // Every access conflicts in one set of a 4-way cache: miss,
    // evict a dirty victim, write it back, install — the complete
    // miss path. The allocs_per_iter counter must read 0.000: the
    // occupancy-mask victim(), the hoisted writeback request and the
    // fixed MSHR/port schedules leave nothing to heap-allocate.
    CacheParams p;
    p.name = "bm_install";
    p.size = 32 * 1024;
    p.line = 32;
    p.assoc = 4;
    ConstMemory mem(70);
    Cache cache(p, &mem, nullptr);
    const std::uint64_t set_stride = p.line * cache.sets();

    MemRequest req;
    req.kind = AccessKind::DemandWrite; // dirty installs -> writebacks
    std::uint64_t i = 0;
    Cycle t = 0;
    // Mark the counter at iteration boundaries so the delta covers
    // exactly the measured accesses, not the harness's own loop
    // bookkeeping (which allocates at teardown).
    std::uint64_t start_allocs = 0, end_allocs = 0;
    std::uint64_t counted_iters = 0;
    bool first = true;
    for (auto _ : state) {
        if (first) {
            start_allocs = end_allocs = t_alloc_count;
            first = false;
        } else {
            end_allocs = t_alloc_count;
            ++counted_iters;
        }
        req.addr = (i++ % 16) * set_stride; // 16 tags, 4 ways: all miss
        req.when = (t += 100);
        benchmark::DoNotOptimize(cache.access(req));
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["allocs_per_iter"] =
        counted_iters ? static_cast<double>(end_allocs - start_allocs) /
                            static_cast<double>(counted_iters)
                      : 0.0;
}
BENCHMARK(BM_CacheInstall);

/** Minimal client: one virtual hop, the cost under measurement. */
struct CountingClient final : public HierarchyClient
{
    std::uint64_t events = 0;

    void
    cacheAccess(CacheLevel, const MemRequest &, bool, bool) override
    {
        ++events;
    }
};

void
BM_HookDispatch(benchmark::State &state)
{
    // Pure hit stream through the L1 demand path. Arg(0) runs with no
    // client bound (the shim's null check folds to nothing); Arg(1)
    // binds a client, adding the single devirtualized-shim-to-client
    // call per access that replaced the seed's two-deep virtual chain.
    CacheParams p;
    p.name = "bm_hooks";
    p.size = 32 * 1024;
    p.line = 32;
    p.assoc = 1;
    Cache cache(p, nullptr, nullptr);
    CountingClient client;
    if (state.range(0))
        cache.bindClient(&client, CacheLevel::L1D, nullptr);

    // Warm every line once so the measured loop only hits.
    MemRequest req;
    req.kind = AccessKind::DemandRead;
    for (std::uint64_t a = 0; a < p.size; a += p.line) {
        req.addr = a;
        cache.access(req);
    }
    std::uint64_t i = 0;
    Cycle t = 0;
    for (auto _ : state) {
        req.addr = (i++ % 1024) * p.line;
        req.when = (t += 4);
        benchmark::DoNotOptimize(cache.access(req));
    }
    state.SetItemsProcessed(state.iterations());
    if (state.range(0))
        benchmark::DoNotOptimize(client.events);
}
BENCHMARK(BM_HookDispatch)->Arg(0)->Arg(1);

void
BM_SdramAccess(benchmark::State &state)
{
    SdramParams p;
    Bus fsb(BusParams{"bm_fsb", 64, 5});
    Sdram dram(p, &fsb);
    Rng rng(7);
    Cycle t = 0;
    for (auto _ : state) {
        MemRequest req;
        req.addr = rng.nextBounded(1 << 22) * 64;
        req.kind = AccessKind::DemandRead;
        req.when = (t += 50);
        benchmark::DoNotOptimize(dram.access(req));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SdramAccess);

// Trace generation, ns per generated instruction: swim is
// compute-heavy (Rng draws dominate), pchase image-heavy (every link
// load reads the memory image).
void
BM_TraceGeneration(benchmark::State &state, const char *program)
{
    SpecGenerator gen(specProgram(program));
    TraceRecord rec;
    for (auto _ : state) {
        gen.next(rec);
        benchmark::DoNotOptimize(rec);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_TraceGeneration, swim, "swim");
BENCHMARK_CAPTURE(BM_TraceGeneration, pchase, "pchase");

// Fast-forward, ns per skipped instruction: skip() makes the same
// draws and image writes as next() but builds no records, which is
// how SimPoint profiling and the prefix before a window are paid.
void
BM_TraceSkip(benchmark::State &state, const char *program)
{
    constexpr std::uint64_t chunk = 10'000;
    SpecGenerator gen(specProgram(program));
    for (auto _ : state)
        gen.skip(chunk);
    state.SetItemsProcessed(state.iterations() * chunk);
}
BENCHMARK_CAPTURE(BM_TraceSkip, swim, "swim");
BENCHMARK_CAPTURE(BM_TraceSkip, pchase, "pchase");
// mcf's chase region is the suite's largest (32 MiB).
BENCHMARK_CAPTURE(BM_TraceSkip, mcf, "mcf");

// --- The SoA block loop over a prebuilt TraceView. ---
//
// BM_TraceViewRun drives OoOCore::run over a materialized window;
// items_per_second is instructions simulated per second, and
// run_allocs pins the loop allocation-free. BM_MechanismRun/<acronym>
// is the same run with a mechanism attached: VC exercises the
// LineBuffer side store on every L1 miss, DBCP its correlation table
// plus a LineBuffer prefetch buffer, FVC reads every evicted L1 line
// from the memory image, GHB walks its per-PC miss chain on every
// L2 miss, TK sweeps two L1 sets' idle timers on every L1 access and
// Markov probes its 3.5 MiB prediction table on every L1 miss.

void
BM_MechanismRun(benchmark::State &state, const char *mechanism)
{
    const TraceWindow window{0, 200'000};
    const MaterializedTrace trace =
        materialize(specProgram("crafty"), window);
    const BaselineConfig cfg = makeBaseline();
    bool counted = false;
    for (auto _ : state) {
        Hierarchy hier(cfg.hier, trace.image);
        const auto mech = makeMechanism(mechanism, MechanismConfig{});
        if (mech) {
            mech->bind(hier);
            hier.setClient(mech.get());
        }
        OoOCore core(cfg.core);
        // run_allocs counts heap activity of one full 200k-record
        // run() call (hierarchy/mechanism/core construction
        // excluded): the SoA loop and the miss path beneath it
        // should report 0.
        const std::uint64_t before = t_alloc_count;
        benchmark::DoNotOptimize(core.run(trace.view(), hier));
        if (!counted) {
            state.counters["run_allocs"] =
                static_cast<double>(t_alloc_count - before);
            counted = true;
        }
    }
    state.SetItemsProcessed(state.iterations() * window.length);
}

void
BM_TraceViewRun(benchmark::State &state)
{
    BM_MechanismRun(state, "Base");
}
BENCHMARK(BM_TraceViewRun);
BENCHMARK_CAPTURE(BM_MechanismRun, VC, "VC");
BENCHMARK_CAPTURE(BM_MechanismRun, DBCP, "DBCP");
BENCHMARK_CAPTURE(BM_MechanismRun, FVC, "FVC");
BENCHMARK_CAPTURE(BM_MechanismRun, GHB, "GHB");
BENCHMARK_CAPTURE(BM_MechanismRun, TK, "TK");
BENCHMARK_CAPTURE(BM_MechanismRun, Markov, "Markov");

// --- Lockstep multi-variant execution: V cores, one trace pass. ---
//
// BM_LockstepVariants/V advances V independent baseline cores over
// the same 200k-record trace in one LockstepGroup::run() pass — one
// block loop, V state machines per block. items_per_second counts
// instructions across all V members, so dividing by BM_TraceViewRun's
// items_per_second gives the lockstep throughput gain over V
// independent passes (the locality win of touching each trace block
// once while it is hot in cache). V=1 is the degenerate group, kept
// as the lockstep machinery's overhead baseline. No sweep runs in
// lockstep; see src/cpu/lockstep.hh.

void
BM_LockstepVariants(benchmark::State &state)
{
    const TraceWindow window{0, 200'000};
    const MaterializedTrace trace =
        materialize(specProgram("crafty"), window);
    const BaselineConfig cfg = makeBaseline();
    const auto variants = static_cast<std::size_t>(state.range(0));
    bool counted = false;
    for (auto _ : state) {
        // deque, not vector: Hierarchy is pinned (caches hold
        // pointers into it), and deque growth never relocates.
        std::deque<Hierarchy> hiers;
        std::deque<OoOCore> cores;
        LockstepGroup group;
        for (std::size_t v = 0; v < variants; ++v) {
            hiers.emplace_back(cfg.hier, trace.image);
            cores.emplace_back(cfg.core);
            group.add(cores.back(), hiers.back());
        }
        // run_allocs counts heap activity of one full lockstep pass
        // (setup excluded): the block loop must stay allocation-free
        // for any group size — CI asserts this reads 0.
        const std::uint64_t before = t_alloc_count;
        group.run(trace.view());
        if (!counted) {
            state.counters["run_allocs"] =
                static_cast<double>(t_alloc_count - before);
            counted = true;
        }
        benchmark::DoNotOptimize(group.result(variants - 1));
    }
    state.SetItemsProcessed(state.iterations() * window.length *
                            variants);
}
BENCHMARK(BM_LockstepVariants)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- Trace arena: cold generation vs warm mmap'd load. ---
//
// BM_TraceArenaColdWarm/0 materializes a 200k-record window from
// scratch every iteration (the cold path every process used to pay);
// /1 loads the same window from a pre-published arena file — open,
// mmap, validate checksum, rebuild the image, borrow the columns.
// items_per_second of /1 over /0 is the warm-start speedup CI tracks
// (it must stay >= 5x). The warm case also reports run_allocs of one
// full simulated run over the *mapped* columns: the borrowed-span
// hot path must stay allocation-free exactly like the owned one.

void
BM_TraceArenaColdWarm(benchmark::State &state)
{
    const TraceWindow window{0, 200'000};
    const std::string key = "bench-arena-key";
    const bool warm = state.range(0) != 0;
    const BaselineConfig cfg = makeBaseline();
    const std::string dir =
        (std::filesystem::temp_directory_path() /
         "microlib_bench_arena")
            .string();

    if (warm) {
        std::filesystem::remove_all(dir);
        TraceArena setup(dir);
        setup.publish(key, materialize(specProgram("crafty"), window));
    }
    TraceArena arena(dir);

    bool counted = false;
    for (auto _ : state) {
        if (warm) {
            auto trace = arena.tryLoad(key);
            if (!trace) {
                state.SkipWithError("arena load failed");
                break;
            }
            benchmark::DoNotOptimize(trace->view().pc);
            if (!counted) {
                counted = true;
                state.PauseTiming();
                Hierarchy hier(cfg.hier, trace->image);
                OoOCore core(cfg.core);
                const std::uint64_t before = t_alloc_count;
                benchmark::DoNotOptimize(
                    core.run(trace->view(), hier));
                state.counters["run_allocs"] =
                    static_cast<double>(t_alloc_count - before);
                state.ResumeTiming();
            }
        } else {
            const MaterializedTrace trace =
                materialize(specProgram("crafty"), window);
            benchmark::DoNotOptimize(trace.view().pc);
        }
    }
    state.SetItemsProcessed(state.iterations() * window.length);
}
BENCHMARK(BM_TraceArenaColdWarm)->Arg(0)->Arg(1);

// --- Matrix scheduling: the engine's single work queue. ---
//
// A small matrix swept by the ExperimentEngine's persistent pool.
// Measured in wall time (UseRealTime): the default CPU time counts
// only the calling thread, so /4 and /8 would report "scaling" that
// the wall clock never saw.

const char *const matrix_spec = "sweep-spec v1\n"
                                "bench swim mcf crafty gzip\n"
                                "mech Base TP SP GHB\n"
                                "base window.selection=arbitrary\n"
                                "base window.skip=0\n"
                                "base window.length=100000\n";

void
BM_MatrixEngine(benchmark::State &state)
{
    SweepSpec spec;
    std::string error;
    if (!SweepSpec::parse(matrix_spec, spec, &error)) {
        state.SkipWithError(error.c_str());
        return;
    }
    EngineOptions opts;
    opts.threads = static_cast<unsigned>(state.range(0));
    ExperimentEngine engine(opts);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.run(spec));
        engine.cache().clear(); // rematerialize every iteration
    }
    state.SetItemsProcessed(state.iterations() *
                            spec.mechanisms().size() *
                            spec.benchmarks().size());
}
BENCHMARK(BM_MatrixEngine)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

} // namespace

// Not BENCHMARK_MAIN(): the JSON context carries this binary's build
// type (below).
int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // The stock library_build_type context key reflects how
    // *libbenchmark* was compiled (the distro package ships without
    // NDEBUG, so it always says "debug"). Numbers depend on how
    // *this* binary was compiled, so stamp that under a distinct
    // name: emitting a duplicate library_build_type made the JSON
    // ambiguous (duplicate keys, parser-dependent winner). CI rejects
    // a BENCH_kernel.json whose microlib_build_type is not "release".
#ifdef NDEBUG
    benchmark::AddCustomContext("microlib_build_type", "release");
#else
    benchmark::AddCustomContext("microlib_build_type", "debug");
#endif
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

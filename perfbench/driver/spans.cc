#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <pthread.h>

#include "core/experiment.hh"
#include "core/result_store.hh"
#include "cpu/lockstep.hh"
#include "cpu/ooo_core.hh"
#include "trace/simpoint.hh"
#include "trace/trace_arena.hh"
#include "trace/window.hh"

namespace perfbench
{

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point g_origin = Clock::now();
std::atomic<bool> g_tracing{false};
std::atomic<std::size_t> g_arena_hits{0};

std::mutex g_mu;
std::vector<Span> g_spans; // guarded by g_mu
thread_local std::vector<int> t_open;

void
childAfterFork()
{
    // A forked worker's spans could never be written out.
    g_tracing.store(false, std::memory_order_relaxed);
}

const int g_atfork = pthread_atfork(nullptr, nullptr, childAfterFork);

} // namespace

double
now()
{
    return std::chrono::duration<double>(Clock::now() - g_origin).count();
}

void
setTracing(bool on)
{
    (void)g_atfork;
    g_tracing.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return g_tracing.load(std::memory_order_relaxed);
}

ScopedSpan::ScopedSpan(const char *name)
{
    if (!tracing())
        return;
    const int parent = t_open.empty() ? -1 : t_open.back();
    {
        std::lock_guard<std::mutex> lock(g_mu);
        _id = static_cast<int>(g_spans.size());
        g_spans.push_back(Span{name, now(), 0.0, parent});
    }
    t_open.push_back(_id);
}

ScopedSpan::~ScopedSpan()
{
    if (_id < 0)
        return;
    const double end = now();
    t_open.pop_back();
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans[_id].end = end;
}

int
addSpan(const std::string &name, double start, double end, int parent)
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.push_back(Span{name, start, end, parent});
    return static_cast<int>(g_spans.size()) - 1;
}

std::vector<Span>
spans()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_spans;
}

std::map<std::string, double>
selfSeconds(const std::vector<Span> &all)
{
    // Children of one parent may overlap (parallel workers): subtract
    // the union of their intervals, not the sum.
    std::vector<std::vector<std::pair<double, double>>> kids(all.size());
    for (const Span &s : all)
        if (s.parent >= 0)
            kids[s.parent].emplace_back(s.start, s.end);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < all.size(); ++i) {
        std::sort(kids[i].begin(), kids[i].end());
        double covered = 0.0, reach = all[i].start;
        for (const auto &[start, end] : kids[i]) {
            covered += std::max(0.0, end - std::max(start, reach));
            reach = std::max(reach, end);
        }
        out[all[i].name] += all[i].end - all[i].start - covered;
    }
    return out;
}

std::map<std::string, double>
totalSeconds(const std::vector<Span> &all)
{
    std::map<std::string, double> out;
    for (const Span &s : all)
        out[s.name] += s.end - s.start;
    return out;
}

std::map<std::string, std::size_t>
spanCounts(const std::vector<Span> &all)
{
    std::map<std::string, std::size_t> out;
    for (const Span &s : all)
        ++out[s.name];
    return out;
}

std::size_t
arenaHits()
{
    return g_arena_hits.load();
}

bool
writeSpans(const std::string &path, const std::string &run_id,
           const std::vector<Span> &all)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (const Span &s : all)
        std::fprintf(f,
                     "{\"run\":\"%s\",\"name\":\"%s\",\"start\":%.9f,"
                     "\"end\":%.9f,\"parent\":%d}\n",
                     run_id.c_str(), s.name.c_str(), s.start, s.end,
                     s.parent);
    return std::fclose(f) == 0;
}

} // namespace perfbench

// ----- link-time wrappers ---------------------------------------------
//
// CMakeLists.txt links the driver with `--wrap=<symbol>` for each
// function below: every call the library makes to <symbol> from
// another translation unit lands in __wrap_<symbol>, which opens a
// span and forwards to __real_<symbol> (the original). The symbols
// are Itanium-mangled names; member functions take `this` as their
// first parameter, after the hidden return-slot pointer when the
// result is returned in memory — the same order a free function with
// an explicit self parameter gets.

using namespace microlib;
using perfbench::ScopedSpan;

#define PB_WRAP(ret, sym, params) \
    ret __real_##sym params __asm__("__real_" #sym); \
    ret __wrap_##sym params __asm__("__wrap_" #sym); \
    ret __wrap_##sym params

PB_WRAP(SimPointChoice, _ZN8microlib12findSimPointERKNS_11SpecProgramEmj,
        (const SpecProgram &prog, std::uint64_t interval, unsigned k))
{
    ScopedSpan span("findSimPoint");
    return __real__ZN8microlib12findSimPointERKNS_11SpecProgramEmj(
        prog, interval, k);
}

PB_WRAP(MaterializedTrace,
        _ZN8microlib11materializeERKNS_11SpecProgramERKNS_11TraceWindowE,
        (const SpecProgram &prog, const TraceWindow &window))
{
    ScopedSpan span("materialize");
    return __real__ZN8microlib11materializeERKNS_11SpecProgramERKNS_11TraceWindowE(
        prog, window);
}

PB_WRAP(bool,
        _ZN8microlib10TraceArena7publishERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_17MaterializedTraceE,
        (TraceArena * self, const std::string &key,
         const MaterializedTrace &trace))
{
    ScopedSpan span("TraceArena::publish");
    return __real__ZN8microlib10TraceArena7publishERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_17MaterializedTraceE(
        self, key, trace);
}

PB_WRAP(std::optional<MaterializedTrace>,
        _ZN8microlib10TraceArena7tryLoadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
        (TraceArena * self, const std::string &key))
{
    ScopedSpan span("TraceArena::tryLoad");
    std::optional<MaterializedTrace> out =
        __real__ZN8microlib10TraceArena7tryLoadERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
            self, key);
    if (out && perfbench::tracing())
        ++perfbench::g_arena_hits;
    return out;
}

PB_WRAP(CoreResult,
        _ZN8microlib7OoOCore3runERKNS_9TraceViewERNS_9HierarchyE,
        (OoOCore * self, const TraceView &trace, Hierarchy &mem))
{
    ScopedSpan span("OoOCore::run");
    return __real__ZN8microlib7OoOCore3runERKNS_9TraceViewERNS_9HierarchyE(
        self, trace, mem);
}

PB_WRAP(void, _ZN8microlib13LockstepGroup3runERKNS_9TraceViewE,
        (LockstepGroup * self, const TraceView &trace))
{
    ScopedSpan span("LockstepGroup::run");
    __real__ZN8microlib13LockstepGroup3runERKNS_9TraceViewE(self, trace);
}

PB_WRAP(RunOutput,
        _ZN8microlib6runOneERKNS_17MaterializedTraceERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_9RunConfigE,
        (const MaterializedTrace &trace, const std::string &mechanism,
         const RunConfig &cfg))
{
    ScopedSpan span("runOne");
    return __real__ZN8microlib6runOneERKNS_17MaterializedTraceERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKNS_9RunConfigE(
        trace, mechanism, cfg);
}

PB_WRAP(std::vector<RunOutput>,
        _ZN8microlib11runLockstepERKNS_17MaterializedTraceERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorIPKNS_9RunConfigESaISE_EE,
        (const MaterializedTrace &trace, const std::string &mechanism,
         const std::vector<const RunConfig *> &cfgs))
{
    ScopedSpan span("runLockstep");
    return __real__ZN8microlib11runLockstepERKNS_17MaterializedTraceERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERKSt6vectorIPKNS_9RunConfigESaISE_EE(
        trace, mechanism, cfgs);
}

PB_WRAP(void, _ZN8microlib11ResultStore3putERKNS_12ResultRecordE,
        (ResultStore * self, const ResultRecord &rec))
{
    ScopedSpan span("ResultStore::put");
    __real__ZN8microlib11ResultStore3putERKNS_12ResultRecordE(self, rec);
}

PB_WRAP(std::size_t,
        _ZN8microlib11ResultStore5mergeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE,
        (ResultStore * self, const std::string &path))
{
    ScopedSpan span("ResultStore::merge");
    return __real__ZN8microlib11ResultStore5mergeERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE(
        self, path);
}

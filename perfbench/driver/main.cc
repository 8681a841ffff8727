/**
 * @file
 * perfbench_driver: one timed iteration of a benchmark workload.
 *
 * Links libmicrolib and runs one of the four sweep workloads of
 * BENCHMARK.json from this process: set up (store, plan, arena
 * prewarm, service daemon and workers), run the sweep through the
 * workload's ExecutionBackend, render the report, check the result
 * against the per-variant oracle, tear everything down and print one
 * JSON object on stdout. perfbench/run.py builds this binary, runs it
 * once per iteration and aggregates the iterations of a run.
 *
 *   perfbench_driver --workload warm_matrix --seed 3 --workdir DIR
 *                    [--trace] [--tiny] [--setup-only]
 *
 * Every iteration streams progress events into the work directory.
 * --trace records spans around every layer call (spans.hh) and adds
 * the layer ladder; its timings are not the
 * end-to-end ones (run.py takes those from an untraced iteration).
 * --setup-only stops after setup: extra set-up samples are cheap where
 * the sweep is not.
 * Exit status: 0 measured (the JSON says whether the result is
 * correct), 2 usage or non-Release build, 3 infrastructure failure.
 */

#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/process_shard_backend.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/service_backend.hh"
#include "core/thread_pool_backend.hh"
#include "service/net.hh"
#include "service/protocol.hh"
#include "service/sweepd.hh"
#include "service/worker.hh"
#include "sim/version.hh"

#include "driver.hh"
#include "spans.hh"

using namespace microlib;
using namespace perfbench;

namespace
{

/** Wall-clock cap of one iteration; run.py's per-run cap is above it. */
constexpr unsigned deadline_s = 150;

/** ServiceBackend job-status poll interval. The CLI's 0.1 s would
 *  quantize a ~3 s sweep by up to 3%. */
constexpr double service_poll_s = 0.005;

/** Idle lease poll of the pull workers (WorkerOptions default 0.2 s:
 *  the same quantization at job start). */
constexpr double worker_idle_poll_s = 0.005;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    std::string workdir;
    bool traced = false;
    bool tiny = false;
    bool setup_only = false;
};

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver "
                 "--workload NAME --seed N --workdir DIR [--trace] "
                 "[--tiny] [--setup-only]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((flag + " needs a value").c_str());
            return argv[++i];
        };
        if (flag == "--workload") {
            a.workload = value();
        } else if (flag == "--seed") {
            const std::string v = value();
            char *end = nullptr;
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end != '\0')
                usage("--seed wants a non-negative integer");
        } else if (flag == "--workdir") {
            a.workdir = value();
        } else if (flag == "--trace") {
            a.traced = true;
        } else if (flag == "--tiny") {
            a.tiny = true;
        } else if (flag == "--setup-only") {
            a.setup_only = true;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (a.workload.empty() || a.workdir.empty())
        usage("--workload and --workdir are required");
    return a;
}

// ----- JSON output ------------------------------------------------------

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
object(const std::map<std::string, double> &m)
{
    std::string out = "{";
    for (const auto &[k, v] : m) {
        if (out.size() > 1)
            out += ",";
        out += quote(k) + ":" + number(v);
    }
    return out + "}";
}

// ----- host and build stamp ----------------------------------------------

std::string
cpuInfoField(const char *key)
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, std::strlen(key), key) != 0)
            continue;
        const auto colon = line.find(':');
        if (colon != std::string::npos)
            return line.substr(line.find_first_not_of(" \t", colon + 1));
    }
    return "unknown";
}

std::string
stampJson()
{
    double load1 = -1.0;
    if (std::FILE *f = std::fopen("/proc/loadavg", "r")) {
        if (std::fscanf(f, "%lf", &load1) != 1)
            load1 = -1.0;
        std::fclose(f);
    }
    std::string out = "{";
    out += "\"nproc\":" +
           std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
    out += ",\"cpu_model\":" + quote(cpuInfoField("model name"));
    out += ",\"cpu_mhz\":" + quote(cpuInfoField("cpu MHz"));
    out += ",\"loadavg_1m\":" + number(load1);
    out += ",\"compiler\":" + quote(__VERSION__);
    out += ",\"build_type\":" + quote(PERFBENCH_BUILD_TYPE);
    out += ",\"version\":" + quote(versionString("microlib"));
    out += ",\"service_poll_s\":" + number(service_poll_s);
    out += ",\"worker_idle_poll_s\":" + number(worker_idle_poll_s);
    return out + "}";
}

// ----- process accounting --------------------------------------------------

double
tv(const timeval &t)
{
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
}

/** The fields of /proc/<pid>/stat after the command name, from the
 *  state field on; empty when the process is gone. */
std::string
procStat(long pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto close = text.rfind(") ");
    return close == std::string::npos ? "" : text.substr(close + 2);
}

/** utime+stime of a live process (clock-tick resolution); 0 when it
 *  is gone. */
double
procCpuSeconds(pid_t pid)
{
    unsigned long utime = 0, stime = 0;
    // state ppid pgrp session tty tpgid flags minflt cminflt majflt
    // cmajflt utime stime
    std::sscanf(procStat(pid).c_str(),
                "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %lu %lu",
                &utime, &stime);
    return static_cast<double>(utime + stime) /
           static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** VmHWM of a live process in MiB; 0 when it is gone. */
double
procPeakMiB(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.compare(0, 6, "VmHWM:") == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/** Pids whose parent is @p parent (the stray-process check). */
std::vector<pid_t>
childrenOf(pid_t parent)
{
    std::vector<pid_t> out;
    DIR *d = opendir("/proc");
    if (!d)
        return out;
    while (dirent *e = readdir(d)) {
        char *end = nullptr;
        const long pid = std::strtol(e->d_name, &end, 10);
        long ppid = 0;
        if (*end == '\0' && pid > 0 &&
            std::sscanf(procStat(pid).c_str(), "%*c %ld", &ppid) == 1 &&
            ppid == parent)
            out.push_back(static_cast<pid_t>(pid));
    }
    closedir(d);
    return out;
}

// ----- helper processes (service workload) -------------------------------

std::vector<pid_t> g_helpers;

extern "C" void
onDeadline(int)
{
    const char msg[] = "perfbench_driver: deadline exceeded; killing "
                       "the process group\n";
    [[maybe_unused]] const ssize_t n = write(2, msg, sizeof(msg) - 1);
    kill(0, SIGKILL); // this process, the daemon and every worker
}

pid_t
forkHelper(const std::function<int()> &body)
{
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("perfbench_driver: fork");
        std::exit(3);
    }
    if (pid == 0) {
        int rc = 3;
        try {
            rc = body();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench helper: %s\n", e.what());
        }
        std::fflush(stdout);
        std::fflush(stderr);
        _exit(rc);
    }
    g_helpers.push_back(pid);
    return pid;
}

/** Reap every helper: SIGTERM the daemon (workers leave when it
 *  closes their sockets), SIGKILL whatever is still alive after a
 *  grace period. */
void
stopHelpers(pid_t daemon)
{
    if (daemon > 0)
        kill(daemon, SIGTERM);
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (const pid_t pid : g_helpers) {
        int status = 0;
        for (;;) {
            const pid_t r = waitpid(pid, &status, WNOHANG);
            if (r == pid || (r < 0 && errno != EINTR))
                break;
            if (std::chrono::steady_clock::now() > give_up) {
                kill(pid, SIGKILL);
                waitpid(pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
    g_helpers.clear();
}

SweepService *g_service = nullptr;

extern "C" void
onDaemonTerm(int)
{
    if (g_service)
        g_service->requestStop();
}

/** One request to the daemon, answered by "workers": its count. */
bool
attachedWorkers(const std::string &addr, std::uint64_t &count)
{
    std::string error;
    const int fd = connectTo(addr, &error);
    if (fd < 0)
        return false;
    LineSocket sock(fd);
    std::string reply;
    if (!sock.sendLine(ProtocolMsg("cmd", "workers").str()) ||
        !sock.recvLine(reply))
        return false;
    return jsonFindU64(reply, "count", count);
}

/** Collects each line appended to @p path, stamped with the time it
 *  was seen, until stopped. */
class StreamTail
{
  public:
    StreamTail(std::string path, double origin)
        : _path(std::move(path)), _origin(origin),
          _thread([this] { loop(); })
    {
    }

    ~StreamTail() { stop(); }

    StreamTail(const StreamTail &) = delete;
    StreamTail &operator=(const StreamTail &) = delete;

    void
    stop()
    {
        if (_thread.joinable()) {
            _stop.store(true);
            _thread.join();
            poll();
        }
    }

    const std::vector<std::pair<double, std::string>> &
    lines() const
    {
        return _lines;
    }

  private:
    void
    loop()
    {
        while (!_stop.load()) {
            poll();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }

    void
    poll()
    {
        std::ifstream in(_path, std::ios::binary);
        if (!in)
            return;
        in.seekg(static_cast<std::streamoff>(_offset));
        std::string chunk((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
        _offset += chunk.size();
        const double t = now() - _origin;
        _partial += chunk;
        std::size_t nl;
        while ((nl = _partial.find('\n')) != std::string::npos) {
            _lines.emplace_back(t, _partial.substr(0, nl));
            _partial.erase(0, nl + 1);
        }
    }

    std::string _path;
    double _origin;
    std::size_t _offset = 0;
    std::string _partial;
    std::vector<std::pair<double, std::string>> _lines;
    std::atomic<bool> _stop{false};
    std::thread _thread; // last: started after the members it uses
};

// ----- sweep pieces ----------------------------------------------------------

/** Opens a span named after the backend around its execute(). */
class SpannedBackend : public ExecutionBackend
{
  public:
    SpannedBackend(ExecutionBackend &inner, const char *span)
        : _inner(inner), _span(span)
    {
    }
    const char *name() const override { return _inner.name(); }
    void
    execute(const TaskPlan &plan, const std::vector<char> &done,
            const ExecutionContext &ctx, SweepResult &res,
            RunCounters &counters) override
    {
        ScopedSpan span(_span);
        _inner.execute(plan, done, ctx, res, counters);
    }

  private:
    ExecutionBackend &_inner;
    const char *_span;
};

/** Materialize every trace window of @p plan into the arena, the way
 *  `microlib_sweep --prewarm-traces` does. */
void
prewarm(const TaskPlan &plan, const std::string &arena_dir)
{
    ScopedSpan span("prewarm");
    EngineOptions opts;
    opts.threads = 1;
    opts.trace_dir = arena_dir;
    ExperimentEngine engine(opts);
    std::vector<std::size_t> rep(plan.traceSlotCount(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        if (rep[plan.traceSlot(i)] == plan.size())
            rep[plan.traceSlot(i)] = i;
    for (std::size_t slot = 0; slot < rep.size(); ++slot) {
        const PlanTask &t = plan.task(rep[slot]);
        const std::string &key = plan.slotKey(slot);
        TraceCache::Future fut;
        if (engine.cache().claim(key, fut) != TraceCache::Claim::Owner)
            continue;
        ExperimentEngine::materializeInto(engine.cache(), key,
                                          plan.benchmarks()[t.b],
                                          plan.config(t.v));
        engine.cache().evict(key);
    }
}

/** The microlib_sweep report format, byte for byte. */
std::string
renderReport(const SweepResult &res)
{
    std::string out;
    char buf[256];
    const std::size_t nv = res.matrices.size();
    for (std::size_t v = 0; v < nv; ++v) {
        const MatrixResult &m = res.matrices[v];
        std::snprintf(buf, sizeof(buf),
                      "# microlib_sweep IPC matrix (%zu mechanism(s) "
                      "x %zu benchmark(s))%s%s\n",
                      m.mechanisms.size(), m.benchmarks.size(),
                      nv > 1 ? " variant " : "",
                      nv > 1 ? res.variants[v].c_str() : "");
        out += buf;
        std::snprintf(buf, sizeof(buf), "%-8s", "");
        out += buf;
        for (const auto &b : m.benchmarks) {
            std::snprintf(buf, sizeof(buf), "%12s", b.c_str());
            out += buf;
        }
        out += "\n";
        for (std::size_t mi = 0; mi < m.mechanisms.size(); ++mi) {
            std::snprintf(buf, sizeof(buf), "%-8s",
                          m.mechanisms[mi].c_str());
            out += buf;
            for (std::size_t b = 0; b < m.benchmarks.size(); ++b) {
                if (m.faulted(mi, b))
                    std::snprintf(buf, sizeof(buf), "%12s", "FAULT");
                else
                    std::snprintf(buf, sizeof(buf), "%12.6f",
                                  m.ipc[mi][b]);
                out += buf;
            }
            out += "\n";
        }
    }
    if (nv > 1)
        out += sensitivityTable(res).str();
    return out;
}

/**
 * Re-simulate two cells of @p res through the per-variant oracle
 * (runOne on a freshly generated window, independent of the arena,
 * the store and the backend) and count the cells whose CoreResult or
 * StatSet snapshot differs. The seed picks the cells.
 */
std::size_t
oracleMismatches(const TaskPlan &plan, const SweepResult &res,
                 std::uint64_t seed, std::size_t &checked)
{
    const std::size_t nb = plan.benchmarks().size();
    const std::size_t nm = plan.mechanisms().size();
    const std::size_t b = seed % nb;
    const RunConfig &cfg0 = plan.config(0);
    const MaterializedTrace trace =
        materializeFor(plan.benchmarks()[b], cfg0);
    std::size_t bad = 0;
    checked = 0;
    for (std::size_t k = 0; k < 2; ++k) {
        const std::size_t m = (seed / nb + k * (nm / 2 + 1)) % nm;
        const std::size_t v = k % plan.variantCount();
        const MatrixResult &mat = res.matrix(v);
        if (mat.faulted(m, b))
            continue;
        const RunOutput want =
            runOne(trace, plan.mechanisms()[m], plan.config(v));
        const RunOutput &got = mat.outputs[m][b];
        ++checked;
        if (got.core.cycles != want.core.cycles ||
            got.core.instructions != want.core.instructions ||
            got.core.ipc != want.core.ipc || got.stats != want.stats)
            ++bad;
    }
    return bad;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const Workload *wl = findWorkload(args.workload);
    if (!wl)
        usage(("unknown workload " + args.workload).c_str());

#ifndef NDEBUG
    std::fprintf(stderr, "perfbench_driver: assertions are on; refusing "
                         "to report timings from a non-Release build\n");
    return 2;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
        std::fprintf(stderr,
                     "perfbench_driver: built as '%s'; refusing to "
                     "report timings from a non-Release build\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }

    // The library logs to stdout; keep stdout for the one JSON line.
    std::fflush(stdout);
    std::FILE *result_out = fdopen(dup(1), "w");
    dup2(2, 1);

    // Own process group, so the deadline can take down every helper.
    setpgid(0, 0);
    signal(SIGALRM, onDeadline);
    alarm(deadline_s);
    ignoreSigpipe();
    setTracing(args.traced);
    const std::string stamp = stampJson();

    const std::string &dir = args.workdir;
    mkdir(dir.c_str(), 0755);
    const std::string arena_dir = dir + "/arena";
    const std::string store_path = dir + "/sweep.store";
    const std::string sweep_progress = dir + "/sweep.progress";
    const std::string daemon_progress = dir + "/daemon.progress";
    const std::string addr = "unix:" + dir + "/sweepd.sock";

    // ----- setup: store, plan, helpers, arena --------------------------
    SweepSpec spec;
    std::string error;
    if (!SweepSpec::parse(specText(*wl, args.seed, args.tiny), spec,
                          &error)) {
        std::fprintf(stderr, "perfbench_driver: bad spec: %s\n",
                     error.c_str());
        return 3;
    }
    std::unique_ptr<ResultStore> store;
    {
        ScopedSpan span("ResultStore::load");
        store = std::make_unique<ResultStore>(store_path);
    }
    std::unique_ptr<TaskPlan> plan;
    {
        ScopedSpan span("TaskPlan");
        plan = std::make_unique<TaskPlan>(spec);
    }

    pid_t daemon = -1;
    if (wl->backend == BackendKind::Service) {
        ScopedSpan span("attach");
        // Helpers fork before the prewarm so they do not inherit its
        // heap; they are the same code as microlib_sweepd and
        // `microlib_sweep --worker`, with shorter idle polls.
        daemon = forkHelper([&] {
            SweepServiceOptions o;
            o.listen = addr;
            o.store_path = dir + "/daemon.store";
            o.progress_path = daemon_progress;
            SweepService service(o);
            std::string err;
            if (!service.start(&err)) {
                std::fprintf(stderr, "perfbench daemon: %s\n",
                             err.c_str());
                return 3;
            }
            g_service = &service;
            signal(SIGTERM, onDaemonTerm);
            return service.run();
        });
        std::uint64_t count = 0;
        const double give_up = now() + 20.0;
        // Workers start once the daemon listens.
        while (!attachedWorkers(addr, count) && now() < give_up)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        for (unsigned w = 0; w < wl->workers; ++w) {
            forkHelper([&, w] {
                WorkerOptions o;
                o.service = addr;
                o.store_path =
                    dir + "/worker" + std::to_string(w) + ".store";
                o.name = "w";
                o.name += std::to_string(w);
                o.threads = 1;
                o.trace_dir = arena_dir;
                o.idle_poll_s = worker_idle_poll_s;
                return runWorkerLoop(o);
            });
        }
        while ((!attachedWorkers(addr, count) || count < wl->workers) &&
               now() < give_up)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (count < wl->workers) {
            std::fprintf(stderr, "perfbench_driver: only %llu of %u "
                                 "workers attached\n",
                         static_cast<unsigned long long>(count),
                         wl->workers);
            stopHelpers(daemon);
            return 3;
        }
    }
    if (!wl->simpoint)
        prewarm(*plan, arena_dir);

    EngineOptions opts;
    opts.threads = 1;
    opts.store = store.get();
    opts.trace_dir = arena_dir;
    // Progress streams are on in every iteration: run.py times each
    // task from them (see task_times there).
    if (wl->backend != BackendKind::Service)
        opts.progress_path = sweep_progress;
    ThreadPoolBackend pool_backend;
    ServiceBackend service_backend(addr, service_poll_s);
    ProcessShardBackend shard_backend(
        ProcessShardOptions{wl->workers, 1, false});
    std::unique_ptr<SpannedBackend> backend;
    switch (wl->backend) {
      case BackendKind::ThreadPool:
        backend = std::make_unique<SpannedBackend>(
            pool_backend, "ThreadPoolBackend::execute");
        break;
      case BackendKind::Service:
        backend = std::make_unique<SpannedBackend>(
            service_backend, "ServiceBackend::execute");
        break;
      case BackendKind::Shard:
        backend = std::make_unique<SpannedBackend>(
            shard_backend, "ProcessShardBackend::execute");
        break;
    }
    opts.backend = backend.get();
    ExperimentEngine engine(opts);
    const double setup_s = now();
    if (args.setup_only) {
        stopHelpers(daemon);
        std::fprintf(result_out, "{\"workload\":%s,\"setup_s\":%s}\n",
                     quote(args.workload).c_str(),
                     number(setup_s).c_str());
        return std::fclose(result_out) == 0 ? 0 : 3;
    }

    // ----- the sweep ---------------------------------------------------
    rusage self0{}, kids0{};
    getrusage(RUSAGE_SELF, &self0);
    getrusage(RUSAGE_CHILDREN, &kids0);
    double helper_cpu0 = 0.0;
    for (const pid_t pid : g_helpers)
        helper_cpu0 += procCpuSeconds(pid);

    const double sweep_start = now();
    std::unique_ptr<StreamTail> tail;
    if (args.traced && wl->backend == BackendKind::Service)
        tail = std::make_unique<StreamTail>(daemon_progress, sweep_start);
    SweepResult res;
    std::string report;
    double report_s = 0.0;
    try {
        ScopedSpan span("sweep");
        res = engine.runPlan(*plan);
        const double t = now();
        ScopedSpan rspan("report");
        report = renderReport(res);
        report_s = now() - t;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_driver: sweep failed: %s\n",
                     e.what());
        stopHelpers(daemon);
        return 3;
    }
    const double sweep_end = now();
    if (tail)
        tail->stop();
    // Everything below is checking and ladder work, not the sweep.
    setTracing(false);

    rusage self1{}, kids1{};
    getrusage(RUSAGE_SELF, &self1);
    getrusage(RUSAGE_CHILDREN, &kids1);
    double helper_cpu1 = 0.0, helper_peak = 0.0;
    for (const pid_t pid : g_helpers) {
        helper_cpu1 += procCpuSeconds(pid);
        helper_peak = std::max(helper_peak, procPeakMiB(pid));
    }
    const double cpu_s =
        tv(self1.ru_utime) + tv(self1.ru_stime) - tv(self0.ru_utime) -
        tv(self0.ru_stime) + tv(kids1.ru_utime) + tv(kids1.ru_stime) -
        tv(kids0.ru_utime) - tv(kids0.ru_stime) + helper_cpu1 -
        helper_cpu0;
    const double peak_rss_mb =
        std::max({static_cast<double>(self1.ru_maxrss) / 1024.0,
                  static_cast<double>(kids1.ru_maxrss) / 1024.0,
                  helper_peak});

    // ----- correctness ---------------------------------------------------
    const RunCounters counters = engine.lastRun();
    std::size_t missing = 0;
    std::uint64_t instructions = 0;
    for (std::size_t i = 0; i < plan->size(); ++i) {
        const PlanTask &t = plan->task(i);
        const MatrixResult &m = res.matrix(t.v);
        if (m.faulted(t.m, t.b))
            continue;
        const std::uint64_t n = m.outputs[t.m][t.b].core.instructions;
        missing += n == 0;
        instructions += n;
    }
    std::size_t oracle_checked = 0;
    const std::size_t oracle_bad =
        oracleMismatches(*plan, res, args.seed, oracle_checked);

    const std::string report_path = dir + "/report.txt";
    if (std::FILE *f = std::fopen(report_path.c_str(), "w")) {
        std::fputs(report.c_str(), f);
        std::fclose(f);
    }

    // ----- per-layer metrics (traced) ------------------------------------
    std::map<std::string, double> layers, self_s;
    if (args.traced) {
        std::vector<std::string> streams;
        if (wl->backend == BackendKind::ThreadPool)
            streams.push_back(sweep_progress);
        if (wl->backend == BackendKind::Shard)
            for (unsigned w = 0; w < wl->workers; ++w)
                streams.push_back(sweep_progress + ".shard" +
                                  std::to_string(w));
        if (wl->backend == BackendKind::Service)
            streams.push_back(daemon_progress);
        LayerInputs in{*wl,        *plan,      res,
                       dir,        arena_dir,  store_path,
                       streams,    daemon_progress,
                       tail ? tail->lines()
                            : std::vector<std::pair<double,
                                                    std::string>>{},
                       sweep_start, sweep_end, report_s};
        layers = layerMetrics(in);
        const std::vector<Span> all = spans();
        self_s = selfSeconds(all);
        writeSpans(dir + "/spans.jsonl",
                   args.workload + "/" + std::to_string(args.seed), all);
    }

    // ----- teardown and the stray-process check --------------------------
    stopHelpers(daemon);
    const std::vector<pid_t> strays = childrenOf(getpid());
    for (const pid_t pid : strays) {
        kill(pid, SIGKILL);
        waitpid(pid, nullptr, 0);
    }
    alarm(0);

    std::fprintf(
        result_out,
        "{\"workload\":%s,\"seed\":%llu,\"traced\":%s,\"setup_s\":%s,"
        "\"sweep_s\":%s,\"cpu_s\":%s,\"peak_rss_mb\":%s,"
        "\"instructions\":%llu,\"tasks\":%zu,\"quarantined\":%zu,"
        "\"missing\":%zu,\"oracle_checked\":%zu,\"oracle_failed\":%zu,"
        "\"strays\":%zu,\"report\":%s,\"stamp\":%s,\"layers\":%s,"
        "\"self_s\":%s}\n",
        quote(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed),
        args.traced ? "true" : "false", number(setup_s).c_str(),
        number(sweep_end - sweep_start).c_str(), number(cpu_s).c_str(),
        number(peak_rss_mb).c_str(),
        static_cast<unsigned long long>(instructions), plan->size(),
        counters.quarantined.size(), missing, oracle_checked, oracle_bad,
        strays.size(), quote(report_path).c_str(), stamp.c_str(),
        object(layers).c_str(), object(self_s).c_str());
    return std::fclose(result_out) == 0 ? 0 : 3;
}

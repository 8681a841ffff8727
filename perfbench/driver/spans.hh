/**
 * @file
 * In-memory span recorder for the traced benchmark mode.
 *
 * A span is (name, start, end, parent) on the driver's monotonic
 * clock, in seconds since the driver started. Spans are recorded
 * around calls into each layer's public functions: the driver opens
 * ScopedSpans around its own calls (plan build, store open, backend
 * execute), and spans.cc wraps the library's internal cross-layer
 * calls at link time (`ld --wrap`, see CMakeLists.txt), so the
 * library itself is unmodified. Spans stay in memory and are written
 * once, at exit. Recording is off unless setTracing(true); a wrapped
 * call then costs one relaxed load.
 *
 * Forked children (shard workers, the service daemon and its
 * workers) never record: their spans would die with them. Their
 * layer timings come from the progress streams they already write.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Seconds since the driver process started (steady clock). */
double now();

/** One finished span; parent is an index into spans(), -1 = root. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
};

void setTracing(bool on);
bool tracing();

/** Records a span from construction to destruction (when tracing);
 *  spans opened inside it become its children. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int _id = -1;
};

/** Record an already-finished span (derived from a progress stream);
 *  returns its index. */
int addSpan(const std::string &name, double start, double end,
            int parent);

/** Snapshot of every recorded span, in open order. */
std::vector<Span> spans();

/** Per-name sum of self time: each span's duration minus the part
 *  its direct children cover. */
std::map<std::string, double> selfSeconds(const std::vector<Span> &all);

/** Per-name sum of total (inclusive) duration. */
std::map<std::string, double> totalSeconds(const std::vector<Span> &all);

/** Per-name span count. */
std::map<std::string, std::size_t> spanCounts(const std::vector<Span> &all);

/** Count of TraceArena::tryLoad calls that returned a trace. */
std::size_t arenaHits();

/** Write @p all as JSON lines {"run","name","start","end","parent"}. */
bool writeSpans(const std::string &path, const std::string &run_id,
                const std::vector<Span> &all);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

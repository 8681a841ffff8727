/**
 * @file
 * Deterministic fault injection for supervised sweep execution.
 *
 * Fault tolerance that is only exercised by real crashes is fault
 * tolerance that is never exercised. The FaultPlan makes every
 * recovery path of the supervised ProcessShardBackend provable on
 * demand: the MICROLIB_FAULT environment variable names exact flat
 * task indices at which a worker process must die or wedge, and the
 * execution backends ask FaultInjector::clauseAt(task) immediately
 * before simulating each task, so the failure lands at a precise,
 * reproducible point of the plan.
 *
 * Grammar (clauses joined by ',' or '|'):
 *
 *   MICROLIB_FAULT = clause [ {','|'|'} clause ]...
 *   clause         = ('crash'|'hang') '@' <flat task index> [':' <count>]
 *
 *   crash@7      abort() the first time task 7 is about to run
 *   hang@3:2     spin forever at task 3, for its first 2 encounters
 *   crash@7:99   crash at task 7 on (effectively) every encounter —
 *                the poison-task shape the quarantine logic exists for
 *
 * The count is a budget across worker restarts, and the supervising
 * parent owns it. Just before a clause acts, the drain loop writes a
 * `{"event":"fault","task":T,"clause":"crash@T:N"}` progress line.
 * The supervised ProcessShardBackend reads it from the worker's pipe,
 * subtracts one firing from clause T, and starts a restarted worker
 * with MICROLIB_FAULT narrowed to the clauses that still have firings
 * left. So `crash@7:1` means exactly one crash followed by a clean
 * resumed rerun: the recovery proof CI runs. A process with no
 * supervising parent (a plain in-process run, a service worker) fires
 * a clause at most once, because it dies or wedges doing so.
 *
 * The injector is completely inert — not even an env lookup on the
 * task path — unless MICROLIB_FAULT is set, and it never touches
 * results: a task either runs exactly as planned or its process dies
 * before the store sees anything.
 */

#ifndef MICROLIB_SIM_FAULT_HH
#define MICROLIB_SIM_FAULT_HH

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace microlib
{

/** What an armed fault clause does when it fires. */
enum class FaultKind
{
    Crash, ///< abort(): the worker dies by signal
    Hang,  ///< sleep forever: the worker stops heartbeating
};

/** One injection site: kind @ flat task index, for its first N runs. */
struct FaultClause
{
    FaultKind kind = FaultKind::Crash;
    std::uint64_t task = 0;
    std::uint64_t count = 1;

    /** Canonical text: "crash@7:2". */
    std::string str() const;
};

/** A parsed MICROLIB_FAULT value. */
struct FaultPlan
{
    std::vector<FaultClause> clauses;

    bool empty() const { return clauses.empty(); }

    /** Canonical text, clauses joined by ',': "crash@7:2,hang@3:1"
     *  ("" for an empty plan). parse() reads it back. */
    std::string str() const;

    /** Parse the grammar above; false + *error on malformed input
     *  (unknown kind, missing '@', non-numeric index/count, zero
     *  count, duplicate task). Empty text parses to an empty plan. */
    static bool parse(const std::string &text, FaultPlan &out,
                      std::string *error = nullptr);
};

/**
 * Process-wide injector. Execution backends arm it once per
 * execute() (armFromEnv — cheap, and re-reading the environment each
 * time keeps long-lived test processes honest when the variable
 * changes between runs), then ask clauseAt(task) before each
 * simulated task and fire() what it returns. Arming happens before
 * the backend's threads start, so clauseAt() is safe to call from
 * pool workers.
 */
class FaultInjector
{
  public:
    /** The process-wide instance (inert until armed). */
    static FaultInjector &instance();

    /** (Re)read MICROLIB_FAULT. A malformed plan is a fatal error —
     *  a mistyped injection must never silently run a sweep
     *  un-faulted. */
    void armFromEnv();

    bool armed() const { return !_plan.empty(); }

    /** The clause armed at flat task @p task, or nullptr. */
    const FaultClause *clauseAt(std::size_t task) const;

    /** Act out @p clause: abort() for a crash, sleep forever for a
     *  hang. Never touches results. */
    [[noreturn]] static void fire(const FaultClause &clause);

  private:
    FaultInjector() = default;

    std::mutex _mu;    ///< serializes armFromEnv between engines
    std::string _text; ///< raw MICROLIB_FAULT last armed
    FaultPlan _plan;
};

} // namespace microlib

#endif // MICROLIB_SIM_FAULT_HH

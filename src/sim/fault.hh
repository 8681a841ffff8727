/**
 * @file
 * Deterministic fault injection for supervised sweep execution.
 *
 * Fault tolerance that is only exercised by real crashes is fault
 * tolerance that is never exercised. The FaultPlan makes every
 * recovery path of the supervised ProcessShardBackend provable on
 * demand: the MICROLIB_FAULT environment variable names exact flat
 * task indices at which a worker process must die or wedge, and the
 * execution backends call FaultInjector::checkpoint(task) immediately
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
 * "First N encounters" is counted across worker restarts when
 * MICROLIB_FAULT_STATE names a state file: every firing appends one
 * line to it (flushed before the fault acts), and a clause whose
 * firing count has reached <count> no longer triggers. The supervised
 * ProcessShardBackend points each worker at a per-shard state file
 * derived from its store path when the variable is unset, so
 * `crash@7:1` means exactly one crash followed by a clean resumed
 * rerun — the recovery proof CI runs. Without a state file (plain
 * in-process runs) counts are per process, so every restarted worker
 * re-fires: the shape the quarantine tests use.
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
 * changes between runs), then call checkpoint(task) before each
 * simulated task. checkpoint() may abort the process or never
 * return; it is thread-safe, as backends call it from pool workers.
 */
class FaultInjector
{
  public:
    /** The process-wide instance (inert until armed). */
    static FaultInjector &instance();

    /**
     * (Re)read MICROLIB_FAULT and MICROLIB_FAULT_STATE. A malformed
     * plan is a fatal error — a mistyped injection must never
     * silently run a sweep un-faulted. Re-arming with unchanged text
     * keeps the in-memory firing counts; a changed value resets them.
     */
    void armFromEnv();

    bool armed() const { return !_plan.empty(); }

    /**
     * Fire any clause matching @p task whose firing budget remains:
     * record the firing (state file when configured, else in
     * memory), then crash or hang. Returns normally when nothing
     * matches. Never touches results.
     */
    void checkpoint(std::size_t task);

  private:
    FaultInjector() = default;

    /** Times @p clause has already fired (state file wins). */
    std::size_t firedCount(const FaultClause &clause);

    /** Append one firing line to the state file (flushed + synced);
     *  in-memory count otherwise. */
    void recordFiring(const FaultClause &clause);

    std::mutex _mu;
    std::string _text;       ///< raw MICROLIB_FAULT last armed
    std::string _state_path; ///< MICROLIB_FAULT_STATE ("" = memory)
    FaultPlan _plan;
    std::vector<std::size_t> _fired; ///< per clause, memory mode
};

} // namespace microlib

#endif // MICROLIB_SIM_FAULT_HH

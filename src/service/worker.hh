/**
 * @file
 * The pull-based sweep worker: `microlib_sweep --worker <addr>`.
 *
 * A worker is a long-running simulation process that attaches to a
 * microlib_sweepd daemon and drains it: hello (schema handshake),
 * then lease -> execute -> complete until the daemon hangs up. Each
 * lease is a handful of plan-order task indices of one job; the
 * worker rebuilds the job's TaskPlan from the canonical spec text in
 * the lease reply (the TaskPlan determinism contract makes its
 * indices mean exactly what the daemon's do), executes the leased
 * tasks with the ordinary ThreadPoolBackend, and appends every
 * result to its OWN store file — the daemon merges that file on
 * completion (and on the worker's death: whatever was flushed is
 * salvaged).
 *
 * While executing, the worker's ProgressWriter streams the standard
 * JSONL events over the daemon socket itself (the fd sink): the
 * daemon relays them into its progress file and uses the heartbeats
 * as blame evidence, exactly as the process-shard supervisor tails
 * per-shard files. One ExperimentEngine lives across all leases, so
 * traces (and the shared trace arena, if MICROLIB_TRACE_DIR is set)
 * stay warm from lease to lease.
 */

#ifndef MICROLIB_SERVICE_WORKER_HH
#define MICROLIB_SERVICE_WORKER_HH

#include <cstddef>
#include <string>

namespace microlib
{

/** Worker knobs (`microlib_sweep --worker` flags map onto these). */
struct WorkerOptions
{
    std::string service;    ///< daemon address (required)
    std::string store_path; ///< own store; "" = derived from pid
    std::string name;       ///< display name; "" = host:pid
    unsigned threads = 0;   ///< simulation threads (0 = default)
    bool verbose = false;
    std::string trace_dir;  ///< trace arena (shared with siblings)
    double idle_poll_s = 0.2; ///< sleep between empty leases
};

/**
 * Run the worker loop until the daemon hangs up. Returns a process
 * exit code: exit_ok on a clean daemon shutdown, exit_infrastructure
 * when the daemon is unreachable, rejects the hello (schema
 * mismatch), or vanishes mid-lease.
 */
int runWorkerLoop(const WorkerOptions &opts);

} // namespace microlib

#endif // MICROLIB_SERVICE_WORKER_HH

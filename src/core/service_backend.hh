/**
 * @file
 * ServiceBackend: run a sweep by submitting it to microlib_sweepd.
 *
 * The third ExecutionBackend (after thread-pool and process-shard):
 * instead of simulating anything locally, submit the plan's canonical
 * spec to a sweep daemon, poll until the job completes, then fetch
 * the fingerprinted records and fill the SweepResult slots through
 * the SAME TaskPlan::prefill path a resumed local sweep uses.
 * Hexfloat record serialization round-trips doubles exactly, so the
 * result — and any report rendered from it — is byte-identical to a
 * local ThreadPoolBackend run of the same spec.
 *
 * Dedup is the daemon's: a spec already executed (by anyone)
 * completes without a single new simulation, and per-task records
 * shared with other sweeps are never re-run. The backend cannot know
 * or care which worker ran what. A plan the caller's own store
 * already holds in full never contacts the daemon at all.
 *
 * Infrastructure failures — daemon unreachable, connection lost
 * mid-job, refused submit — throw InfrastructureError, which the CLI
 * maps to exit code 4 (core/exit_codes.hh): "retry against healthy
 * infrastructure", as opposed to an experiment failure.
 */

#ifndef MICROLIB_CORE_SERVICE_BACKEND_HH
#define MICROLIB_CORE_SERVICE_BACKEND_HH

#include <string>

#include "core/execution_backend.hh"

namespace microlib
{

/** ExecutionBackend over a microlib_sweepd connection. */
class ServiceBackend : public ExecutionBackend
{
  public:
    /** Submit to the daemon at @p addr (unix:/path or host:port),
     *  polling job status every @p poll_s seconds. */
    explicit ServiceBackend(std::string addr, double poll_s = 0.1);

    const char *name() const override { return "service"; }

    void execute(const TaskPlan &plan, const std::vector<char> &done,
                 const ExecutionContext &ctx, SweepResult &res,
                 RunCounters &counters) override;

  private:
    std::string _addr;
    double _poll_s;
};

} // namespace microlib

#endif // MICROLIB_CORE_SERVICE_BACKEND_HH

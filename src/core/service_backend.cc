#include "core/service_backend.hh"

#include <chrono>
#include <thread>

#include "core/exit_codes.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "service/net.hh"
#include "service/protocol.hh"
#include "sim/logging.hh"

namespace microlib
{

namespace
{

/** Request/reply over @p sock; throws InfrastructureError when the
 *  daemon is gone — partial service results are worthless to the
 *  caller, but the daemon's store keeps everything for a retry. */
std::string
exchange(LineSocket &sock, const std::string &request,
         const char *what)
{
    std::string reply;
    if (!sock.exchange(request, reply))
        throw InfrastructureError(
            std::string("sweep service: connection lost during ") +
            what);
    return reply;
}

std::uint64_t
requireOk(const std::string &reply, const char *what)
{
    std::uint64_t ok = 0;
    if (jsonFindU64(reply, "ok", ok) && ok == 1)
        return ok;
    std::string why;
    jsonFindString(reply, "error", why);
    throw InfrastructureError(std::string("sweep service: ") + what +
                              " refused: " + why);
}

} // namespace

ServiceBackend::ServiceBackend(std::string addr, double poll_s)
    : _addr(std::move(addr)), _poll_s(poll_s)
{
}

void
ServiceBackend::execute(const TaskPlan &plan,
                        const std::vector<char> &done,
                        const ExecutionContext &ctx, SweepResult &res,
                        RunCounters &counters)
{
    // The daemon sees only the canonical spec text; every spec is
    // settings, so that text rebuilds this very plan.
    const std::string text = plan.spec().canonicalText();

    // Everything resumed from the caller's store: nothing to submit
    // or fetch, so the daemon need not even be reachable.
    if (plan.pendingTasks(done, ShardSpec{}).empty())
        return;

    ignoreSigpipe();
    std::string error;
    const int fd = connectTo(_addr, &error);
    if (fd < 0)
        throw InfrastructureError("sweep service: cannot reach " +
                                  _addr + ": " + error);
    LineSocket sock(fd);

    std::string reply = exchange(
        sock,
        ProtocolMsg("cmd", "submit").field("spec", text).str(),
        "submit");
    requireOk(reply, "submit");
    std::string job_id, state;
    if (!jsonFindString(reply, "job", job_id) ||
        !jsonFindString(reply, "state", state))
        throw InfrastructureError(
            "sweep service: malformed submit reply");
    std::string dedup;
    jsonFindString(reply, "dedup", dedup);
    inform("service backend: job ", job_id, " (", dedup, ", ",
           state, ") at ", _addr);

    while (state != "done") {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(_poll_s));
        reply = exchange(sock,
                         ProtocolMsg("cmd", "status")
                             .field("job", job_id)
                             .str(),
                         "status");
        requireOk(reply, "status");
        if (!jsonFindString(reply, "state", state))
            throw InfrastructureError(
                "sweep service: malformed status reply");
    }

    reply = exchange(sock,
                     ProtocolMsg("cmd", "result")
                         .field("job", job_id)
                         .str(),
                     "result");
    requireOk(reply, "result");
    std::uint64_t record_count = 0;
    jsonFindU64(reply, "records", record_count);
    std::vector<std::size_t> quarantined;
    jsonFindArray(reply, "quarantined", quarantined);

    // Fetched records land in the caller's store when one is
    // attached (persisting the service results for local resume);
    // otherwise in a throwaway. Either way the matrix slots fill
    // through plan.prefill — the exact resume path, hence exact
    // bytes.
    ResultStore fallback;
    ResultStore *fill_store =
        ctx.opts.store ? ctx.opts.store : &fallback;
    std::size_t parsed = 0;
    for (std::uint64_t i = 0; i < record_count; ++i) {
        std::string line;
        if (!sock.recvLine(line))
            throw InfrastructureError(
                "sweep service: connection lost mid-result");
        std::string rec_text;
        if (!jsonFindString(line, "rec", rec_text))
            continue;
        ResultRecord rec;
        if (ResultStore::parseRecord(rec_text, rec)) {
            fill_store->put(rec);
            ++parsed;
        } else {
            ++counters.store_skipped;
        }
    }

    std::vector<char> merged_done = done;
    counters.executed += plan.prefill(*fill_store, res, merged_done);

    // Quarantined tasks have no record: flag their cells and exempt
    // them from the completeness check — the process-shard merge's
    // settlement step.
    const std::size_t missing = plan.settleQuarantined(
        quarantined, res, merged_done, counters.quarantined);
    if (missing < plan.size())
        throw InfrastructureError(
            "sweep service: job " + job_id + " reported done but task " +
            std::to_string(missing) + " has no record (" +
            std::to_string(parsed) + " records fetched)");
}

} // namespace microlib

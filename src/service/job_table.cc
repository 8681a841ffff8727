#include "service/job_table.hh"

#include "core/exit_codes.hh"
#include "core/result_store.hh"
#include "sim/fingerprint.hh"

namespace microlib
{

std::string
jobIdOf(const SweepSpec &spec)
{
    return Fingerprint::hexOf(spec.hash());
}

ServiceJob::ServiceJob(const SweepSpec &spec,
                       const SupervisionPolicy &policy)
    : id(jobIdOf(spec)), spec_text(spec.canonicalText()), plan(spec),
      done(plan.size(), 0), res(plan.emptyResult()),
      supervisor(policy)
{
}

std::vector<std::size_t>
ServiceJob::quarantined() const
{
    std::vector<std::size_t> out;
    for (const std::size_t q : queue.quarantined()) {
        out.push_back(q);
        for (const auto &[later, first] : shared)
            if (first == q)
                out.push_back(later);
    }
    return out;
}

int
ServiceJob::exitCode() const
{
    return queue.quarantined().empty() ? exit_ok : exit_quarantined;
}

JobTable::Submission
JobTable::submit(const SweepSpec &spec, ResultStore &store,
                 const SupervisionPolicy &policy)
{
    const std::string id = jobIdOf(spec);
    const auto it = _jobs.find(id);
    if (it != _jobs.end())
        return {it->second.get(), true};

    auto job = std::make_unique<ServiceJob>(spec, policy);
    // Per-task dedup: anything the global store already holds — from
    // an earlier job or an offline sweep merged in — fills its slot
    // now and never queues.
    job->prefilled = job->plan.prefill(store, job->res, job->done);
    job->shared = job->plan.sharedKeyTasks(job->done, ShardSpec{});
    std::vector<char> unqueued = job->done;
    for (const auto &pair : job->shared)
        unqueued[pair.first] = 1;
    job->queue.reset(job->plan.pendingTasks(unqueued, ShardSpec{}));
    job->completed = job->queue.done();
    ServiceJob *raw = job.get();
    _jobs.emplace(id, std::move(job));
    _order.push_back(id);
    sweepCompleted();
    return {raw, false};
}

ServiceJob *
JobTable::find(const std::string &id)
{
    const auto it = _jobs.find(id);
    return it == _jobs.end() ? nullptr : it->second.get();
}

void
JobTable::erase(std::string id)
{
    // By value: a caller may pass the job's own id, which the erase
    // below frees.
    _jobs.erase(id);
    for (auto it = _order.begin(); it != _order.end(); ++it) {
        if (*it == id) {
            _order.erase(it);
            break;
        }
    }
}

ServiceJob *
JobTable::nextLeasable()
{
    for (const std::string &id : _order) {
        ServiceJob *job = find(id);
        if (job && !job->completed && job->queue.pendingCount() > 0)
            return job;
    }
    return nullptr;
}

void
JobTable::sweepCompleted()
{
    std::size_t done_count = 0;
    for (const auto &kv : _jobs) {
        if (kv.second->queue.done())
            kv.second->completed = true;
        if (kv.second->completed)
            ++done_count;
    }
    // Evict oldest completed jobs beyond the cap; their records
    // survive in the store, so a resubmit reconstructs the job by
    // prefill alone.
    for (auto it = _order.begin();
         it != _order.end() && done_count > _max_done;) {
        ServiceJob *job = find(*it);
        if (job && job->completed) {
            _jobs.erase(*it);
            it = _order.erase(it);
            --done_count;
        } else {
            ++it;
        }
    }
}

} // namespace microlib

/** @file The sweep service stack: LeaseQueue pull scheduling, the
 *  JSONL wire protocol, JobTable dedup, and microlib_sweepd end to
 *  end — an in-process daemon, real pull workers, byte-identical
 *  results vs a local run, resubmit dedup (zero re-execution),
 *  worker-death requeue and strike-to-quarantine. */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/exit_codes.hh"
#include "core/lease.hh"
#include "core/progress.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/service_backend.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"
#include "service/job_table.hh"
#include "service/net.hh"
#include "service/protocol.hh"
#include "service/sweepd.hh"
#include "service/worker.hh"
#include "sim/version.hh"

using namespace microlib;

namespace
{

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "microlib_service_" + name;
}

/** A tiny spec-file sweep: 2 benchmarks x 2 mechanisms = 4 tasks at
 *  a short trace length, the same scale the shard tests use. */
const char *const kSpecText = "sweep-spec v1\n"
                              "bench swim gzip\n"
                              "mech Base TP\n"
                              "base window.trace_length=100000\n"
                              "base window.interval=100000\n";

SweepSpec
parseSpec(const std::string &text = kSpecText)
{
    SweepSpec spec;
    std::string error;
    if (!SweepSpec::parse(text, spec, &error))
        ADD_FAILURE() << "spec parse: " << error;
    return spec;
}

std::size_t
countEvents(const std::string &progress_path, const std::string &name)
{
    std::ifstream in(progress_path);
    std::string line;
    std::size_t n = 0;
    const std::string needle = "{\"event\":\"" + name + "\"";
    while (std::getline(in, line))
        if (line.compare(0, needle.size(), needle) == 0)
            ++n;
    return n;
}

/** Non-empty lines of the file at @p path. */
std::size_t
countLines(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line))
        if (!line.empty())
            ++n;
    return n;
}

/** Bit-identity over everything the store persists (the same check
 *  the shard tests apply to merged shard results). */
void
expectIdentical(const SweepResult &a, const SweepResult &b)
{
    ASSERT_EQ(a.matrices.size(), b.matrices.size());
    for (std::size_t v = 0; v < a.matrices.size(); ++v) {
        const MatrixResult &ma = a.matrices[v];
        const MatrixResult &mb = b.matrices[v];
        ASSERT_EQ(ma.mechanisms, mb.mechanisms);
        ASSERT_EQ(ma.benchmarks, mb.benchmarks);
        for (std::size_t m = 0; m < ma.mechanisms.size(); ++m) {
            for (std::size_t bi = 0; bi < ma.benchmarks.size();
                 ++bi) {
                EXPECT_EQ(ma.ipc[m][bi], mb.ipc[m][bi])
                    << ma.mechanisms[m] << "/" << ma.benchmarks[bi];
                EXPECT_EQ(ma.outputs[m][bi].stats,
                          mb.outputs[m][bi].stats)
                    << ma.mechanisms[m] << "/" << ma.benchmarks[bi];
            }
        }
    }
}

// ---------------------------------------------------------------
// LeaseQueue

TEST(LeaseQueue, LeasesLowestPendingInPlanOrder)
{
    LeaseQueue q({5, 1, 3, 7, 9});
    EXPECT_EQ(q.lease("a", 2), (std::vector<std::size_t>{1, 3}));
    EXPECT_EQ(q.lease("b", 2), (std::vector<std::size_t>{5, 7}));
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.leasedCount(), 4u);
    EXPECT_EQ(*q.ownerOf(1), "a");
    EXPECT_EQ(*q.ownerOf(7), "b");
    EXPECT_EQ(q.ownerOf(9), nullptr);
    EXPECT_FALSE(q.done());
}

TEST(LeaseQueue, CompleteRemovesOnlyLeasedTasks)
{
    LeaseQueue q({0, 1, 2});
    q.lease("a", 2); // 0, 1
    EXPECT_TRUE(q.complete(0));
    EXPECT_FALSE(q.complete(0)); // already gone
    EXPECT_FALSE(q.complete(2)); // pending, not leased
    EXPECT_EQ(q.leasedCount(), 1u);
}

TEST(LeaseQueue, ReleaseRequeuesAnOwnersTasks)
{
    LeaseQueue q({0, 1, 2, 3});
    q.lease("dead", 3); // 0,1,2
    q.complete(1);
    EXPECT_EQ(q.release("dead"), (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(q.pendingCount(), 3u); // 0,2 back + 3
    EXPECT_EQ(q.leasedCount(), 0u);
    // The released tasks go to the next asker, lowest first.
    EXPECT_EQ(q.lease("b", 2), (std::vector<std::size_t>{0, 2}));
}

TEST(LeaseQueue, RequeueReturnsOneLeasedTask)
{
    LeaseQueue q({4, 5});
    q.lease("a", 2);
    EXPECT_TRUE(q.requeue(5));
    EXPECT_FALSE(q.requeue(5)); // now pending, not leased
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.leasedCount(), 1u);
}

TEST(LeaseQueue, MarkDoneDropsPendingAndLeased)
{
    LeaseQueue q({0, 1, 2, 3});
    q.lease("a", 2); // 0,1
    std::vector<char> done(4, 0);
    done[1] = 1; // leased to a, but its record landed
    done[3] = 1; // still pending
    EXPECT_EQ(q.markDone(done), 2u);
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_EQ(q.leasedCount(), 1u);
    EXPECT_EQ(q.ownerOf(1), nullptr);
}

TEST(LeaseQueue, QuarantineRemovesFromEitherState)
{
    LeaseQueue q({0, 1, 2});
    q.lease("a", 1); // 0
    EXPECT_TRUE(q.quarantine(0));  // leased
    EXPECT_TRUE(q.quarantine(2));  // pending
    EXPECT_FALSE(q.quarantine(2)); // gone
    EXPECT_EQ(q.quarantined(), (std::vector<std::size_t>{0, 2}));
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_FALSE(q.done());
    q.lease("b", 4);
    q.complete(1);
    EXPECT_TRUE(q.done());
}

// ---------------------------------------------------------------
// Wire protocol

TEST(Protocol, BuilderAndFindersRoundTrip)
{
    const std::string line =
        ProtocolMsg("cmd", "submit")
            .field("spec", std::string("line1\nline \"2\" \\ tail"))
            .field("count", std::uint64_t{42})
            .field("tasks", std::vector<std::size_t>{3, 1, 4})
            .str();
    std::string kind;
    ASSERT_TRUE(protocolKind(line, "cmd", kind));
    EXPECT_EQ(kind, "submit");
    EXPECT_FALSE(protocolKind(line, "reply", kind));

    std::string spec;
    ASSERT_TRUE(jsonFindString(line, "spec", spec));
    EXPECT_EQ(spec, "line1\nline \"2\" \\ tail");

    std::uint64_t count = 0;
    ASSERT_TRUE(jsonFindU64(line, "count", count));
    EXPECT_EQ(count, 42u);

    std::vector<std::size_t> tasks;
    ASSERT_TRUE(jsonFindArray(line, "tasks", tasks));
    EXPECT_EQ(tasks, (std::vector<std::size_t>{3, 1, 4}));
}

TEST(Protocol, MissingKeysAndEmptyArray)
{
    const std::string line = ProtocolMsg("reply", "lease")
                                 .field("ok", std::uint64_t{1})
                                 .field("tasks",
                                        std::vector<std::size_t>{})
                                 .str();
    std::vector<std::size_t> tasks = {99};
    ASSERT_TRUE(jsonFindArray(line, "tasks", tasks));
    EXPECT_TRUE(tasks.empty());
    std::string s;
    EXPECT_FALSE(jsonFindString(line, "job", s));
    std::uint64_t u = 0;
    EXPECT_FALSE(jsonFindU64(line, "count", u));
}

TEST(Protocol, NumbersMustStartWithADigit)
{
    // strtoull would skip blanks and accept a sign: {"records":-1}
    // read as 2^64-1. Socket bytes are outside input, so a number is
    // a digit run, as on the command line, and must fit in 64 bits.
    std::uint64_t u = 7;
    EXPECT_FALSE(jsonFindU64("{\"records\":-1}", "records", u));
    EXPECT_FALSE(jsonFindU64("{\"records\":+1}", "records", u));
    EXPECT_FALSE(jsonFindU64("{\"records\": 1}", "records", u));
    EXPECT_FALSE(jsonFindU64("{\"records\":18446744073709551616}",
                             "records", u));
    ASSERT_TRUE(jsonFindU64("{\"records\":18446744073709551615}",
                            "records", u));
    EXPECT_EQ(u, UINT64_MAX);
    ASSERT_TRUE(jsonFindU64("{\"records\":0}", "records", u));
    EXPECT_EQ(u, 0u);

    std::vector<std::size_t> tasks;
    EXPECT_FALSE(jsonFindArray("{\"tasks\":[1,-2,+3]}", "tasks", tasks));
    EXPECT_FALSE(jsonFindArray("{\"tasks\":[-1]}", "tasks", tasks));
    EXPECT_FALSE(jsonFindArray("{\"tasks\":[1, 2]}", "tasks", tasks));
    EXPECT_FALSE(jsonFindArray("{\"tasks\":[ 1]}", "tasks", tasks));
    EXPECT_FALSE(jsonFindArray("{\"tasks\":[1,]}", "tasks", tasks));
    EXPECT_FALSE(jsonFindArray("{\"tasks\":[1,2", "tasks", tasks));
    ASSERT_TRUE(jsonFindArray("{\"tasks\":[10,2,300]}", "tasks", tasks));
    EXPECT_EQ(tasks, (std::vector<std::size_t>{10, 2, 300}));
}

TEST(Protocol, KeyTextInsideAValueIsNotAField)
{
    // A value containing what looks like another field must not
    // shadow the real one: interior quotes are escaped, so the raw
    // byte pattern "key":" only ever opens a true field.
    const std::string line =
        ProtocolMsg("cmd", "submit")
            .field("spec", std::string("\"job\":\"fake\""))
            .field("job", std::string("real"))
            .str();
    std::string job;
    ASSERT_TRUE(jsonFindString(line, "job", job));
    EXPECT_EQ(job, "real");
}

TEST(Version, SchemaTupleNamesEveryPersistedFormat)
{
    const std::string tuple = schemaTuple();
    EXPECT_NE(tuple.find("store="), std::string::npos);
    EXPECT_NE(tuple.find("arena="), std::string::npos);
    EXPECT_NE(tuple.find("sweephash="), std::string::npos);
    const std::string v = versionString("microlib_sweep");
    EXPECT_EQ(v.compare(0, 15, "microlib_sweep "), 0);
    EXPECT_NE(v.find(tuple), std::string::npos);
}

// ---------------------------------------------------------------
// JobTable dedup

TEST(JobTable, IdenticalSpecsNameTheSameJob)
{
    ResultStore store; // in-memory
    JobTable table;
    const SupervisionPolicy policy;
    auto first = table.submit(parseSpec(), store, policy);
    ASSERT_NE(first.job, nullptr);
    EXPECT_FALSE(first.deduped);
    EXPECT_EQ(first.job->total(), 4u);
    EXPECT_EQ(first.job->prefilled, 0u);
    EXPECT_FALSE(first.job->completed);

    auto second = table.submit(parseSpec(), store, policy);
    EXPECT_TRUE(second.deduped);
    EXPECT_EQ(second.job, first.job);
    EXPECT_EQ(table.size(), 1u);
}

TEST(JobTable, LeasableJobsServeOldestFirst)
{
    ResultStore store;
    JobTable table;
    const SupervisionPolicy policy;
    auto sub = table.submit(parseSpec(), store, policy);
    EXPECT_EQ(table.nextLeasable(), sub.job);
    // Drain the queue: no longer leasable, job completes.
    const auto tasks = sub.job->queue.lease("w", 100);
    EXPECT_EQ(tasks.size(), 4u);
    EXPECT_EQ(table.nextLeasable(), nullptr);
    for (const std::size_t t : tasks)
        sub.job->queue.complete(t);
    table.sweepCompleted();
    EXPECT_TRUE(sub.job->completed);
}

// ---------------------------------------------------------------
// End to end: daemon + workers + clients, in process

/** One raw-protocol client connection (what microlib_sweep's
 *  ServiceBackend speaks, hand-rolled for the tests). */
class RawClient
{
  public:
    explicit RawClient(const std::string &addr)
    {
        std::string error;
        const int fd = connectTo(addr, &error);
        EXPECT_GE(fd, 0) << error;
        _sock = std::make_unique<LineSocket>(fd);
    }

    std::string exchange(const std::string &request)
    {
        std::string reply;
        EXPECT_TRUE(_sock->sendLine(request) &&
                    _sock->recvLine(reply))
            << "daemon gone during: " << request;
        return reply;
    }

    void sendRaw(const std::string &line)
    {
        EXPECT_TRUE(_sock->sendLine(line));
    }

    void disconnect() { _sock->close(); }

  private:
    std::unique_ptr<LineSocket> _sock;
};

struct ServiceFixture
{
    SweepServiceOptions opts;
    std::unique_ptr<SweepService> service;
    std::thread loop;

    explicit ServiceFixture(const std::string &tag,
                            std::size_t lease_size = 1,
                            std::size_t strikes = 3)
    {
        opts.listen = "unix:" + tmpPath(tag + ".sock");
        opts.store_path = tmpPath(tag + ".store");
        opts.progress_path = tmpPath(tag + ".progress");
        opts.lease_size = lease_size;
        opts.quarantine_strikes = strikes;
        std::remove(opts.store_path.c_str());
        std::remove(opts.progress_path.c_str());
        service = std::make_unique<SweepService>(opts);
        std::string error;
        if (!service->start(&error)) {
            ADD_FAILURE() << "service start: " << error;
            return;
        }
        loop = std::thread([this] { service->run(); });
    }

    /** Stop the loop, then destroy the service: the destructor
     *  closes every worker connection, which is exactly the EOF
     *  that makes runWorkerLoop return exit_ok. */
    void shutdown()
    {
        if (service && loop.joinable()) {
            service->requestStop();
            loop.join();
        }
        service.reset();
    }

    ~ServiceFixture() { shutdown(); }
};

TEST(SweepService, ByteIdenticalResultsDedupAndWorkerDeath)
{
    const SweepSpec spec = parseSpec();
    const TaskPlan plan(spec);

    // The local reference run (plain thread-pool backend).
    EngineOptions ref_opts;
    ExperimentEngine ref_engine(ref_opts);
    const SweepResult reference = ref_engine.runPlan(plan);

    ServiceFixture fix("e2e", /*lease_size=*/1);
    ASSERT_TRUE(fix.service);

    // Before any real worker attaches: a fake worker leases the
    // first task, heartbeats it and dies. The daemon must requeue
    // it (with a strike) and the job must still complete below.
    {
        RawClient client(fix.service->address());
        client.exchange(ProtocolMsg("cmd", "submit")
                            .field("spec", spec.canonicalText())
                            .str());
        RawClient fake(fix.service->address());
        std::string reply = fake.exchange(
            ProtocolMsg("cmd", "hello")
                .field("name", std::string("fake"))
                .field("schema", schemaTuple())
                .field("store", tmpPath("absent.store"))
                .str());
        std::uint64_t ok = 0;
        ASSERT_TRUE(jsonFindU64(reply, "ok", ok));
        ASSERT_EQ(ok, 1u);
        reply = fake.exchange(ProtocolMsg("cmd", "lease").str());
        std::vector<std::size_t> tasks;
        ASSERT_TRUE(jsonFindArray(reply, "tasks", tasks));
        ASSERT_EQ(tasks.size(), 1u);
        fake.sendRaw(ProgressEvent("heartbeat")
                         .field("task", std::uint64_t(tasks[0]))
                         .str());
        fake.disconnect();
    }

    // Two real workers, each with its own store, pulling leases.
    WorkerOptions w0, w1;
    w0.service = w1.service = fix.service->address();
    w0.store_path = tmpPath("e2e_w0.store");
    w1.store_path = tmpPath("e2e_w1.store");
    std::remove(w0.store_path.c_str());
    std::remove(w1.store_path.c_str());
    w0.name = "w0";
    w1.name = "w1";
    w0.idle_poll_s = w1.idle_poll_s = 0.02;
    int rc0 = -1, rc1 = -1;
    std::thread t0([&] { rc0 = runWorkerLoop(w0); });
    std::thread t1([&] { rc1 = runWorkerLoop(w1); });

    // The service-backend client: submits, polls, fetches — the
    // result must be bit-identical to the local reference.
    ServiceBackend backend(fix.service->address(), 0.02);
    EngineOptions client_opts;
    client_opts.backend = &backend;
    ExperimentEngine client_engine(client_opts);
    const SweepResult via_service = client_engine.runPlan(plan);
    expectIdentical(reference, via_service);
    EXPECT_EQ(client_engine.lastRun().executed, plan.size());
    EXPECT_TRUE(client_engine.lastRun().quarantined.empty());

    // The fake worker's death was supervised: requeue + died event.
    EXPECT_GE(countEvents(fix.opts.progress_path, "worker"), 3u);
    {
        std::ifstream in(fix.opts.progress_path);
        std::string all((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        EXPECT_NE(all.find("\"state\":\"died\""), std::string::npos);
    }
    const std::size_t runs_before =
        countEvents(fix.opts.progress_path, "run");
    EXPECT_EQ(runs_before, plan.size());

    // Resubmit: whole-sweep dedup — completes instantly from the
    // existing job, executes nothing new.
    {
        RawClient client(fix.service->address());
        const std::string reply = client.exchange(
            ProtocolMsg("cmd", "submit")
                .field("spec", spec.canonicalText())
                .str());
        std::string dedup, state;
        ASSERT_TRUE(jsonFindString(reply, "dedup", dedup));
        ASSERT_TRUE(jsonFindString(reply, "state", state));
        EXPECT_EQ(dedup, "job");
        EXPECT_EQ(state, "done");
    }
    // The daemon store holds one line per record, although it
    // merged each worker's whole store after every lease.
    EXPECT_EQ(countLines(fix.opts.store_path), plan.size());

    // Resubmit twice against one client store file: the first run
    // fetches every record into it, the second resumes them all, and
    // the file keeps one line per record.
    const std::string client_path = tmpPath("e2e_client.store");
    std::remove(client_path.c_str());
    for (int rerun = 0; rerun < 2; ++rerun) {
        ResultStore client_store(client_path);
        EngineOptions resub_opts = client_opts;
        resub_opts.store = &client_store;
        ExperimentEngine resub_engine(resub_opts);
        const SweepResult resubmitted = resub_engine.runPlan(plan);
        expectIdentical(reference, resubmitted);
        EXPECT_EQ(countEvents(fix.opts.progress_path, "run"),
                  runs_before);
        EXPECT_EQ(countLines(client_path), plan.size())
            << "rerun " << rerun;
    }

    // With every task resumed from the client store, the backend
    // returns before dialling: an unreachable daemon does not matter.
    {
        ResultStore client_store(client_path);
        ServiceBackend nowhere("unix:" + tmpPath("nobody.sock"), 0.02);
        EngineOptions opts;
        opts.store = &client_store;
        opts.backend = &nowhere;
        ExperimentEngine engine(opts);
        SweepResult resumed;
        EXPECT_NO_THROW(resumed = engine.runPlan(plan));
        expectIdentical(reference, resumed);
        EXPECT_EQ(engine.lastRun().executed, 0u);
    }
    std::remove(client_path.c_str());

    fix.shutdown();
    t0.join();
    t1.join();
    EXPECT_EQ(rc0, exit_ok);
    EXPECT_EQ(rc1, exit_ok);
}

TEST(SweepService, StrikesQuarantineAPoisonTask)
{
    const SweepSpec spec = parseSpec();
    const TaskPlan plan(spec);

    // One strike quarantines: the fake worker's single death below
    // condemns the task it heartbeat.
    ServiceFixture fix("quar", /*lease_size=*/1, /*strikes=*/1);
    ASSERT_TRUE(fix.service);

    {
        RawClient client(fix.service->address());
        client.exchange(ProtocolMsg("cmd", "submit")
                            .field("spec", spec.canonicalText())
                            .str());
        RawClient fake(fix.service->address());
        fake.exchange(ProtocolMsg("cmd", "hello")
                          .field("name", std::string("poisoned"))
                          .field("schema", schemaTuple())
                          .field("store", tmpPath("absent2.store"))
                          .str());
        const std::string reply =
            fake.exchange(ProtocolMsg("cmd", "lease").str());
        std::vector<std::size_t> tasks;
        ASSERT_TRUE(jsonFindArray(reply, "tasks", tasks));
        ASSERT_EQ(tasks.size(), 1u);
        EXPECT_EQ(tasks[0], 0u); // lowest plan index leases first
        fake.sendRaw(ProgressEvent("heartbeat")
                         .field("task", std::uint64_t{0})
                         .str());
        fake.disconnect();
    }

    WorkerOptions w;
    w.service = fix.service->address();
    w.store_path = tmpPath("quar_w.store");
    std::remove(w.store_path.c_str());
    w.idle_poll_s = 0.02;
    int rc = -1;
    std::thread t([&] { rc = runWorkerLoop(w); });

    // The client sees the job complete with task 0 excluded: its
    // cell is FAULT, the run counts it quarantined, and the job's
    // exit status is exit_quarantined.
    ServiceBackend backend(fix.service->address(), 0.02);
    EngineOptions client_opts;
    client_opts.backend = &backend;
    ExperimentEngine client_engine(client_opts);
    const SweepResult res = client_engine.runPlan(plan);
    EXPECT_EQ(client_engine.lastRun().quarantined,
              (std::vector<std::size_t>{0}));
    const PlanTask &poisoned = plan.task(0);
    EXPECT_TRUE(
        res.matrix(poisoned.v).faulted(poisoned.m, poisoned.b));

    {
        RawClient client(fix.service->address());
        const std::string reply = client.exchange(
            ProtocolMsg("cmd", "status")
                .field("job", jobIdOf(spec))
                .str());
        std::uint64_t exit = 0;
        ASSERT_TRUE(jsonFindU64(reply, "exit", exit));
        EXPECT_EQ(exit, std::uint64_t(exit_quarantined));
        std::vector<std::size_t> quarantined;
        ASSERT_TRUE(jsonFindArray(reply, "quarantined", quarantined));
        EXPECT_EQ(quarantined, (std::vector<std::size_t>{0}));
    }
    EXPECT_EQ(countEvents(fix.opts.progress_path, "quarantine"), 1u);

    fix.shutdown();
    t.join();
    EXPECT_EQ(rc, exit_ok);
}

TEST(SweepService, JobEvictedAsItsLastLeaseEndsIsStillReported)
{
    // Room for one finished job: the older job, finishing second, is
    // evicted by the very call that ends its last lease. Its job_done
    // line must still be written, from state read before the
    // eviction frees the job.
    SweepServiceOptions opts;
    opts.listen = "unix:" + tmpPath("evict.sock");
    opts.store_path = tmpPath("evict.store");
    opts.progress_path = tmpPath("evict.progress");
    opts.lease_size = 1;
    opts.quarantine_strikes = 1;
    opts.max_done_jobs = 1;
    std::remove(opts.store_path.c_str());
    std::remove(opts.progress_path.c_str());
    SweepService service(opts);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;
    std::thread loop([&] { service.run(); });

    const std::string tail = "mech Base\n"
                             "base window.trace_length=100000\n"
                             "base window.interval=100000\n";
    RawClient client(service.address());
    for (const char *bench : {"swim", "gzip"})
        client.exchange(ProtocolMsg("cmd", "submit")
                            .field("spec", "sweep-spec v1\nbench " +
                                               std::string(bench) +
                                               "\n" + tail)
                            .str());

    // One fake worker per job, each holding its job's only task. A
    // lease failed after a heartbeat strikes that task, one strike
    // quarantines it, and that finishes the job.
    RawClient older(service.address()), newer(service.address());
    std::string jobs[2];
    RawClient *workers[2] = {&older, &newer};
    for (int i = 0; i < 2; ++i) {
        workers[i]->exchange(ProtocolMsg("cmd", "hello")
                                 .field("name", "fake" + std::to_string(i))
                                 .field("schema", schemaTuple())
                                 .field("store", tmpPath("absent3.store"))
                                 .str());
        const std::string reply =
            workers[i]->exchange(ProtocolMsg("cmd", "lease").str());
        EXPECT_TRUE(jsonFindString(reply, "job", jobs[i])) << reply;
    }
    EXPECT_NE(jobs[0], jobs[1]);
    for (int i : {1, 0}) { // the newer job finishes first
        workers[i]->sendRaw(ProgressEvent("heartbeat")
                                .field("task", std::uint64_t{0})
                                .str());
        workers[i]->exchange(ProtocolMsg("cmd", "complete")
                                 .field("job", jobs[i])
                                 .field("tasks",
                                        std::vector<std::size_t>{0})
                                 .field("ok", std::uint64_t{1})
                                 .str());
    }
    EXPECT_EQ(countEvents(opts.progress_path, "job_done"), 2u);

    service.requestStop();
    loop.join();
}

TEST(SweepService, HelloRefusesSchemaMismatchAndReadOnlyRefusals)
{
    ServiceFixture fix("refuse");
    ASSERT_TRUE(fix.service);

    // A worker from a different build (wrong schema tuple) must be
    // turned away before it can corrupt anything.
    RawClient wrong(fix.service->address());
    std::string reply = wrong.exchange(
        ProtocolMsg("cmd", "hello")
            .field("name", std::string("old"))
            .field("schema", std::string("store=0;arena=0;sweephash=0"))
            .field("store", tmpPath("old.store"))
            .str());
    std::uint64_t ok = 1;
    ASSERT_TRUE(jsonFindU64(reply, "ok", ok));
    EXPECT_EQ(ok, 0u);
    std::string why;
    ASSERT_TRUE(jsonFindString(reply, "error", why));
    EXPECT_NE(why.find("schema mismatch"), std::string::npos);

    // Leasing without a hello is a protocol error, not a lease.
    reply = wrong.exchange(ProtocolMsg("cmd", "lease").str());
    ASSERT_TRUE(jsonFindU64(reply, "ok", ok));
    EXPECT_EQ(ok, 0u);
    fix.shutdown();

    // A read-only daemon serves completed sweeps only: a submit
    // needing execution is refused and leaves no job behind, and
    // workers are refused outright.
    SweepServiceOptions ro = fix.opts;
    ro.listen = "unix:" + tmpPath("ro.sock");
    ro.read_only = true;
    SweepService service(ro);
    std::string error;
    ASSERT_TRUE(service.start(&error)) << error;
    std::thread loop([&] { service.run(); });

    RawClient client(service.address());
    reply = client.exchange(ProtocolMsg("cmd", "submit")
                                .field("spec", kSpecText)
                                .str());
    ASSERT_TRUE(jsonFindU64(reply, "ok", ok));
    EXPECT_EQ(ok, 0u);
    reply = client.exchange(ProtocolMsg("cmd", "hello")
                                .field("name", std::string("w"))
                                .field("schema", schemaTuple())
                                .field("store", tmpPath("w.store"))
                                .str());
    ASSERT_TRUE(jsonFindU64(reply, "ok", ok));
    EXPECT_EQ(ok, 0u);

    service.requestStop();
    loop.join();
}

} // namespace

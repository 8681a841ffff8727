/** @file Supervised sweep execution: the fault-injection grammar, the
 *  torn-line-tolerant progress follower, the strike/retry/quarantine
 *  policy, result-store checksum + torn-tail hardening, and the
 *  end-to-end recovery guarantees — a worker crashed or wedged by a
 *  deterministic FaultPlan restarts, resumes, and merges a result
 *  bit-identical to an undisturbed run; a poison task is quarantined
 *  after K strikes and the rest of the sweep completes. */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "core/exit_codes.hh"
#include "core/process_shard_backend.hh"
#include "core/result_store.hh"
#include "core/scheduler.hh"
#include "core/supervisor.hh"
#include "core/sweep_spec.hh"
#include "core/task_plan.hh"
#include "sim/fault.hh"

#include "spec_helpers.hh"

using namespace microlib;

namespace
{

const std::vector<std::string> mechs = {"Base", "TP", "SP", "GHB"};
const std::vector<std::string> benchs = {"swim", "gzip", "crafty"};

SweepSpec
quickSpec()
{
    return specOf(mechs, benchs,
                  {{"window.trace_length", "100000"},
                   {"window.interval", "100000"}});
}

std::string
tmpPath(const std::string &name)
{
    return testing::TempDir() + "microlib_supervision_" + name;
}

/** Scoped environment variable: set on construction, unset on
 *  destruction — fault plans must never leak into later tests (an
 *  armed crash clause would abort the test process itself). */
struct EnvGuard
{
    EnvGuard(const char *name, const std::string &value) : _name(name)
    {
        setenv(name, value.c_str(), 1);
    }
    ~EnvGuard() { unsetenv(_name); }
    const char *_name;
};

/** Remove the store and the shard stores a supervised run creates
 *  (and a failed earlier test may have left behind). */
void
cleanWorkerFiles(const std::string &store, std::size_t nshards)
{
    std::remove(store.c_str());
    for (std::size_t i = 0; i < nshards; ++i)
        std::remove(
            ProcessShardBackend::shardStorePath(store, i, nshards)
                .c_str());
}

/** The `fault` events across the per-shard streams of @p progress. */
std::size_t
faultEvents(const std::string &progress, std::size_t nshards)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < nshards; ++i) {
        std::ifstream in(progress + ".shard" + std::to_string(i));
        std::string line;
        while (std::getline(in, line))
            n += line.find("\"event\":\"fault\"") != std::string::npos;
    }
    return n;
}

/** Bit-identity over everything the store persists. */
void
expectIdentical(const MatrixResult &a, const MatrixResult &b)
{
    ASSERT_EQ(a.mechanisms, b.mechanisms);
    ASSERT_EQ(a.benchmarks, b.benchmarks);
    for (std::size_t m = 0; m < a.mechanisms.size(); ++m) {
        for (std::size_t bi = 0; bi < a.benchmarks.size(); ++bi) {
            const RunOutput &ra = a.outputs[m][bi];
            const RunOutput &rb = b.outputs[m][bi];
            EXPECT_EQ(a.ipc[m][bi], b.ipc[m][bi])
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
            EXPECT_EQ(ra.core.instructions, rb.core.instructions);
            EXPECT_EQ(ra.core.cycles, rb.core.cycles);
            EXPECT_EQ(ra.core.ipc, rb.core.ipc);
            EXPECT_EQ(ra.stats, rb.stats)
                << a.mechanisms[m] << "/" << a.benchmarks[bi];
        }
    }
}

const MatrixResult &
reference()
{
    // Computed once, strictly before any test arms MICROLIB_FAULT —
    // an in-process run under an armed crash clause would abort the
    // test binary.
    static const MatrixResult ref = [] {
        EngineOptions opts;
        opts.threads = 4;
        ExperimentEngine engine(opts);
        return engine.run(quickSpec()).matrix(0);
    }();
    return ref;
}

/** One supervised process-backend sweep under the current
 *  environment; returns the merged SweepResult. */
SweepResult
supervisedRun(ExperimentEngine &engine)
{
    return engine.runPlan(TaskPlan(quickSpec()));
}

} // namespace

// ---------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------

TEST(FaultPlan, ParsesClauses)
{
    FaultPlan plan;
    ASSERT_TRUE(FaultPlan::parse("crash@7", plan, nullptr));
    ASSERT_EQ(plan.clauses.size(), 1u);
    EXPECT_EQ(plan.clauses[0].kind, FaultKind::Crash);
    EXPECT_EQ(plan.clauses[0].task, 7u);
    EXPECT_EQ(plan.clauses[0].count, 1u);
    EXPECT_EQ(plan.clauses[0].str(), "crash@7:1");

    ASSERT_TRUE(FaultPlan::parse("hang@3:2", plan, nullptr));
    ASSERT_EQ(plan.clauses.size(), 1u);
    EXPECT_EQ(plan.clauses[0].kind, FaultKind::Hang);
    EXPECT_EQ(plan.clauses[0].task, 3u);
    EXPECT_EQ(plan.clauses[0].count, 2u);

    // ',' and '|' both separate clauses; whitespace is ignored.
    ASSERT_TRUE(FaultPlan::parse(" crash@1 , hang@2:5 ", plan, nullptr));
    ASSERT_EQ(plan.clauses.size(), 2u);
    ASSERT_TRUE(FaultPlan::parse("crash@1|hang@2", plan, nullptr));
    ASSERT_EQ(plan.clauses.size(), 2u);

    // Empty text is an empty (inert) plan, not an error.
    ASSERT_TRUE(FaultPlan::parse("", plan, nullptr));
    EXPECT_TRUE(plan.empty());
}

TEST(FaultPlan, RejectsMalformedInput)
{
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::parse("boom@1", plan, &error));
    EXPECT_NE(error.find("unknown kind"), std::string::npos);
    EXPECT_FALSE(FaultPlan::parse("crash1", plan, &error));
    EXPECT_FALSE(FaultPlan::parse("crash@x", plan, &error));
    EXPECT_FALSE(FaultPlan::parse("crash@1:y", plan, &error));
    EXPECT_FALSE(FaultPlan::parse("crash@1:0", plan, &error));
    EXPECT_FALSE(FaultPlan::parse("crash@1,hang@1", plan, &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos);
}

// ---------------------------------------------------------------
// ProgressFollower: torn-line tolerance, heartbeat extraction
// ---------------------------------------------------------------

TEST(ProgressFollower, ConsumesOnlyCompleteLines)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
    // Liveness as the supervisor sees it: a line completed.
    const auto live = [&](ProgressFollower &f) {
        while (f.feedFd(fds[0]) > 0) {
        }
        return !f.takeLines().empty();
    };
    const auto put = [&](const std::string &bytes) {
        return ::write(fds[1], bytes.data(), bytes.size()) ==
               static_cast<ssize_t>(bytes.size());
    };

    ProgressFollower follower;
    EXPECT_FALSE(live(follower)); // nothing written yet

    ASSERT_TRUE(put("{\"event\":\"heartbeat\",\"task\":7}\n"));
    ASSERT_TRUE(put("{\"event\":\"heartbeat\",\"task\":9")); // torn
    std::size_t task = 0;
    EXPECT_TRUE(live(follower)); // the complete line is liveness...
    ASSERT_TRUE(follower.lastHeartbeatTask(task));
    EXPECT_EQ(task, 7u); // ...but the torn line is invisible
    EXPECT_FALSE(live(follower)); // and not liveness either

    // The writer finishes the line: now it counts.
    ASSERT_TRUE(put(",\"x\":1}\n"));
    EXPECT_TRUE(live(follower));
    ASSERT_TRUE(follower.lastHeartbeatTask(task));
    EXPECT_EQ(task, 9u);

    ::close(fds[1]);
    ::close(fds[0]);
}

TEST(ProgressFollower, ParsesOnlyHeartbeats)
{
    // Each line alone through a fresh follower: only a heartbeat
    // with an unsigned task index is blame evidence.
    const auto blames = [](const std::string &line, std::size_t &task) {
        ProgressFollower f;
        f.feed(line + "\n");
        return f.lastHeartbeatTask(task);
    };
    std::size_t task = 99;
    EXPECT_TRUE(blames(
        "{\"event\":\"heartbeat\",\"task\":42,\"bench\":\"swim\"}",
        task));
    EXPECT_EQ(task, 42u);
    EXPECT_FALSE(blames("{\"event\":\"run\",\"task\":42}", task));
    EXPECT_FALSE(
        blames("{\"event\":\"heartbeat\",\"bench\":\"swim\"}", task));
    EXPECT_FALSE(blames("{\"event\":\"heartbeat\",\"task\":", task));
    // Bytes from a socket are outside input: a signed or blank-
    // prefixed task never blames task 2^64-3.
    EXPECT_FALSE(blames("{\"event\":\"heartbeat\",\"task\":-3}", task));
    EXPECT_FALSE(blames("{\"event\":\"heartbeat\",\"task\":+3}", task));
    EXPECT_FALSE(blames("{\"event\":\"heartbeat\",\"task\": 3}", task));
}

// ---------------------------------------------------------------
// SweepSupervisor policy: strikes, retries, backoff, quarantine
// ---------------------------------------------------------------

TEST(Supervisor, RetryBudgetWithExponentialBackoff)
{
    SupervisionPolicy policy;
    policy.max_worker_retries = 2;
    policy.backoff_initial_s = 0.25;
    SweepSupervisor sup(policy);

    WorkerFailure f;
    f.worker = 0;
    f.detail = "killed by signal 9";

    SupervisionVerdict v = sup.decide(f);
    EXPECT_EQ(v.action, SupervisionVerdict::Action::Restart);
    EXPECT_DOUBLE_EQ(v.delay_s, 0.25);
    v = sup.decide(f);
    EXPECT_EQ(v.action, SupervisionVerdict::Action::Restart);
    EXPECT_DOUBLE_EQ(v.delay_s, 0.5);
    v = sup.decide(f); // third failure: budget of 2 spent
    EXPECT_EQ(v.action, SupervisionVerdict::Action::GiveUp);

    // Another worker has its own budget.
    f.worker = 1;
    EXPECT_EQ(sup.decide(f).action,
              SupervisionVerdict::Action::Restart);
}

TEST(Supervisor, BackoffIsCapped)
{
    SupervisionPolicy policy;
    policy.max_worker_retries = 10;
    policy.backoff_initial_s = 4.0;
    SweepSupervisor sup(policy);
    WorkerFailure f;
    EXPECT_DOUBLE_EQ(sup.decide(f).delay_s, 4.0);
    EXPECT_DOUBLE_EQ(sup.decide(f).delay_s, 8.0);
    EXPECT_DOUBLE_EQ(sup.decide(f).delay_s, 8.0); // capped, not 16
}

TEST(Supervisor, QuarantineAfterStrikesResetsRetryBudget)
{
    SupervisionPolicy policy;
    policy.max_worker_retries = 2;
    policy.quarantine_strikes = 3;
    SweepSupervisor sup(policy);

    WorkerFailure f;
    f.worker = 1;
    f.has_task = true;
    f.task = 5;
    f.detail = "killed by signal 6";

    EXPECT_EQ(sup.decide(f).action,
              SupervisionVerdict::Action::Restart); // strike 1, retry 1
    EXPECT_EQ(sup.decide(f).action,
              SupervisionVerdict::Action::Restart); // strike 2, retry 2
    const SupervisionVerdict v = sup.decide(f);     // strike 3
    EXPECT_EQ(v.action, SupervisionVerdict::Action::Restart);
    EXPECT_TRUE(v.quarantined);
    EXPECT_EQ(v.task, 5u);
    ASSERT_EQ(sup.quarantined().size(), 1u);
    EXPECT_EQ(sup.quarantined()[0], 5u);
    EXPECT_TRUE(sup.isQuarantined(5));
    // The poison task is gone; the worker's budget starts over, so
    // a fresh (unrelated) failure restarts instead of giving up.
    EXPECT_EQ(sup.retries(1), 0u);
    f.has_task = false;
    EXPECT_EQ(sup.decide(f).action,
              SupervisionVerdict::Action::Restart);
}

TEST(Supervisor, ZeroStrikesDisablesQuarantine)
{
    SupervisionPolicy policy;
    policy.max_worker_retries = 1;
    policy.quarantine_strikes = 0;
    SweepSupervisor sup(policy);
    WorkerFailure f;
    f.has_task = true;
    f.task = 3;
    EXPECT_FALSE(sup.decide(f).quarantined);
    EXPECT_EQ(sup.decide(f).action,
              SupervisionVerdict::Action::GiveUp);
    EXPECT_TRUE(sup.quarantined().empty());
}

// ---------------------------------------------------------------
// Result-store hardening: checksum + torn tails
// ---------------------------------------------------------------

TEST(StoreHardening, ChecksumRoundTripsAndLegacyLinesStillParse)
{
    ResultRecord rec;
    rec.key = makeResultKey("swim", "Base",
                            TaskPlan(quickSpec()).configHash());
    rec.core.instructions = 1000;
    rec.core.cycles = 2000;
    rec.core.ipc = 0.5;
    rec.stats["l2.misses"] = 42.0;

    const std::string line = ResultStore::formatRecord(rec);
    const auto ck = line.rfind(" ck=");
    ASSERT_NE(ck, std::string::npos);

    ResultRecord back;
    EXPECT_TRUE(ResultStore::parseRecord(line, back));
    EXPECT_EQ(back.key.str(), rec.key.str());
    EXPECT_EQ(back.core.ipc, rec.core.ipc);
    EXPECT_EQ(back.stats, rec.stats);

    // A pre-checksum line (the " ck=<hex>" field spliced out) still
    // parses: old stores stay readable.
    std::string legacy = line;
    legacy.erase(ck, 4 + 16);
    EXPECT_TRUE(ResultStore::parseRecord(legacy, back));
    EXPECT_EQ(back.core.ipc, rec.core.ipc);
}

TEST(StoreHardening, CorruptedLinesAreRejected)
{
    ResultRecord rec;
    rec.key = makeResultKey("swim", "Base",
                            TaskPlan(quickSpec()).configHash());
    rec.core.instructions = 1000;
    rec.core.cycles = 2000;
    rec.core.ipc = 0.5;
    rec.stats["l2.misses"] = 42.0;
    const std::string line = ResultStore::formatRecord(rec);

    ResultRecord back;
    // In-place corruption that tears nothing: flip one digit of a
    // counter. Only the checksum can catch this.
    std::string bitrot = line;
    const auto pos = bitrot.find("instr=1000");
    ASSERT_NE(pos, std::string::npos);
    bitrot[pos + 6] = '9';
    EXPECT_FALSE(ResultStore::parseRecord(bitrot, back));

    // A corrupted checksum field itself.
    std::string badck = line;
    const auto ck = badck.rfind(" ck=");
    badck[ck + 4] = badck[ck + 4] == '0' ? '1' : '0';
    EXPECT_FALSE(ResultStore::parseRecord(badck, back));

    // Every proper prefix is still rejected (terminator + checksum).
    for (std::size_t n = 0; n < line.size(); ++n)
        EXPECT_FALSE(
            ResultStore::parseRecord(line.substr(0, n), back))
            << "prefix of length " << n << " parsed";
}

TEST(StoreHardening, TornTailIsSkippedCountedAndResumedPast)
{
    const SweepSpec spec = quickSpec();
    const std::size_t total = mechs.size() * benchs.size();

    // A complete store...
    const std::string full = tmpPath("torn_full.store");
    std::remove(full.c_str());
    {
        ResultStore store(full);
        EngineOptions opts;
        opts.threads = 2;
        opts.store = &store;
        ExperimentEngine engine(opts);
        engine.run(spec);
        EXPECT_EQ(store.size(), total);
    }

    // ...SIGKILLed mid-append: every line but the last survives, the
    // last is cut mid-record (not at a line boundary).
    const std::string torn = tmpPath("torn_half.store");
    {
        std::ifstream in(full);
        std::ofstream out(torn, std::ios::trunc);
        std::string line;
        std::size_t copied = 0;
        while (std::getline(in, line)) {
            if (copied + 1 == total) {
                out << line.substr(0, line.size() / 2); // torn write
                break;
            }
            out << line << '\n';
            ++copied;
        }
    }

    // The reload skips exactly the torn record, counts it, and the
    // resume re-executes exactly that one task.
    ResultStore store(torn);
    EXPECT_EQ(store.size(), total - 1);
    EXPECT_EQ(store.unreadable(), 1u);

    EngineOptions opts;
    opts.threads = 2;
    opts.store = &store;
    ExperimentEngine engine(opts);
    const MatrixResult res = engine.run(spec).matrix(0);
    EXPECT_EQ(engine.lastRun().resumed, total - 1);
    EXPECT_EQ(engine.lastRun().executed, 1u);
    EXPECT_EQ(engine.lastRun().store_skipped, 1u);
    expectIdentical(reference(), res);

    std::remove(full.c_str());
    std::remove(torn.c_str());
}

// ---------------------------------------------------------------
// End-to-end supervised recovery (deterministic fault injection)
// ---------------------------------------------------------------

TEST(SupervisedSweep, CrashRecoveryIsBitIdenticalAcrossThreadCounts)
{
    // crash@5:1 aborts the owning worker the first time task 5 is
    // about to run. The worker reports the firing before it acts;
    // the parent charges the clause, so the restarted worker runs
    // with no firings left, resumes its own records and finishes.
    // The merged result must be bit-identical to the undisturbed
    // reference — whatever the worker thread count — and the shard
    // streams, which keep every incarnation's lines, hold exactly
    // the one firing.
    reference(); // materialize BEFORE arming the fault plan
    EnvGuard fault("MICROLIB_FAULT", "crash@5:1");
    for (const unsigned threads : {1u, 4u, 8u}) {
        const std::string path = tmpPath(
            "crash_t" + std::to_string(threads) + ".store");
        const std::string progress = tmpPath(
            "crash_t" + std::to_string(threads) + ".jsonl");
        cleanWorkerFiles(path, 2);

        ResultStore store(path);
        ProcessShardOptions sopts{2, threads, false};
        sopts.supervision.backoff_initial_s = 0.01; // keep it quick
        ProcessShardBackend backend(sopts);
        EngineOptions opts;
        opts.threads = 1;
        opts.store = &store;
        opts.backend = &backend;
        opts.progress_path = progress;
        ExperimentEngine engine(opts);

        const SweepResult res = supervisedRun(engine);
        const RunCounters counts = engine.lastRun();
        EXPECT_TRUE(counts.quarantined.empty());
        EXPECT_EQ(counts.executed + counts.resumed,
                  mechs.size() * benchs.size());
        expectIdentical(reference(), res.matrices.front());
        EXPECT_EQ(faultEvents(progress, 2), 1u) << threads << " threads";
        cleanWorkerFiles(path, 2);
        for (const std::string &f :
             {progress, progress + ".shard0", progress + ".shard1"})
            std::remove(f.c_str());
    }
}

TEST(SupervisedSweep, GiveUpLeavesOnlyStores)
{
    // A poison task with neither retries nor quarantine sinks the
    // sweep at its first crash. The shard stores are kept for the
    // resume; nothing else is left next to the store.
    reference();
    EnvGuard fault("MICROLIB_FAULT", "crash@5:99");
    const std::filesystem::path dir = tmpPath("giveup");
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "sweep.store").string();

    ResultStore store(path);
    ProcessShardOptions sopts; // 2 shards, one thread each
    sopts.supervision.max_worker_retries = 0;
    sopts.supervision.quarantine_strikes = 0;
    ProcessShardBackend backend(sopts);
    EngineOptions opts;
    opts.threads = 1;
    opts.store = &store;
    opts.backend = &backend;
    ExperimentEngine engine(opts);

    EXPECT_THROW(supervisedRun(engine), InfrastructureError);
    const std::set<std::string> allowed = {
        "sweep.store", "sweep.store.shard0of2", "sweep.store.shard1of2"};
    std::set<std::string> left;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        left.insert(entry.path().filename().string());
    for (const std::string &f : left)
        EXPECT_TRUE(allowed.count(f)) << "left behind: " << f;
    EXPECT_TRUE(left.count("sweep.store.shard1of2")); // task 5's shard
    std::filesystem::remove_all(dir);
}

TEST(SupervisedSweep, HangIsDetectedKilledAndRecovered)
{
    // hang@4:1 wedges the owning worker (it stops heartbeating but
    // never exits). Stall detection must SIGKILL and restart it, and
    // the rerun — the clause's budget now spent — completes with a
    // bit-identical result.
    reference();
    EnvGuard fault("MICROLIB_FAULT", "hang@4:1");
    const std::string path = tmpPath("hang.store");
    cleanWorkerFiles(path, 2);

    ResultStore store(path);
    ProcessShardOptions sopts{2, 2, false};
    sopts.supervision.heartbeat_timeout = 10.0; // >> any quick task
    sopts.supervision.backoff_initial_s = 0.01;
    ProcessShardBackend backend(sopts);
    EngineOptions opts;
    opts.threads = 1;
    opts.store = &store;
    opts.backend = &backend;
    ExperimentEngine engine(opts);

    const SweepResult res = supervisedRun(engine);
    EXPECT_TRUE(engine.lastRun().quarantined.empty());
    expectIdentical(reference(), res.matrices.front());
    cleanWorkerFiles(path, 2);
}

TEST(SupervisedSweep, PoisonTaskIsQuarantinedAndSweepCompletes)
{
    // crash@5:99 is a poison task: it kills its worker on every
    // encounter. After 3 strikes the supervisor quarantines it; every
    // OTHER task must complete bit-identically, the faulted cell is
    // flagged, and the sensitivity table renders FAULT.
    reference();
    EnvGuard fault("MICROLIB_FAULT", "crash@5:99");
    const std::string path = tmpPath("poison.store");
    cleanWorkerFiles(path, 2);

    ResultStore store(path);
    ProcessShardOptions sopts{2, 2, false};
    sopts.supervision.backoff_initial_s = 0.01;
    ProcessShardBackend backend(sopts);
    EngineOptions opts;
    opts.threads = 1;
    opts.store = &store;
    opts.backend = &backend;
    ExperimentEngine engine(opts);

    const SweepResult res = supervisedRun(engine);
    const RunCounters counts = engine.lastRun();
    ASSERT_EQ(counts.quarantined.size(), 1u);
    EXPECT_EQ(counts.quarantined[0], 5u);

    const TaskPlan plan(quickSpec());
    const PlanTask &poison = plan.task(5);
    const MatrixResult &m = res.matrices.front();
    const MatrixResult &ref = reference();
    EXPECT_TRUE(m.faulted(poison.m, poison.b));
    for (std::size_t mi = 0; mi < mechs.size(); ++mi) {
        for (std::size_t b = 0; b < benchs.size(); ++b) {
            if (mi == poison.m && b == poison.b)
                continue;
            EXPECT_FALSE(m.faulted(mi, b));
            EXPECT_EQ(m.ipc[mi][b], ref.ipc[mi][b])
                << mechs[mi] << "/" << benchs[b];
        }
    }

    // The cross-variant summary refuses to average over the hole.
    const std::string table = sensitivityTable(res).str();
    EXPECT_NE(table.find("FAULT"), std::string::npos);

    cleanWorkerFiles(path, 2);
}

TEST(ProgressFollower, SurfacesOnlyCompleteLinesAcrossTornFeeds)
{
    ProgressFollower f;
    // A line split across three arbitrary chunk boundaries — the
    // byte splits a socket read can produce.
    f.feed("{\"event\":\"run\",\"be");
    EXPECT_FALSE(f.hasLines());
    EXPECT_GT(f.pending(), 0u);
    f.feed("nch\":\"swim\"}\n{\"event\":\"hea");
    ASSERT_TRUE(f.hasLines());
    auto lines = f.takeLines();
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_EQ(lines[0], "{\"event\":\"run\",\"bench\":\"swim\"}");
    EXPECT_FALSE(f.hasLines());

    // The heartbeat completes mid-stream and updates blame.
    std::size_t task = 0;
    EXPECT_FALSE(f.lastHeartbeatTask(task));
    f.feed("rtbeat\",\"task\":7}\n");
    lines = f.takeLines();
    ASSERT_EQ(lines.size(), 1u);
    ASSERT_TRUE(f.lastHeartbeatTask(task));
    EXPECT_EQ(task, 7u);

    // Two lines in one chunk arrive in order; the later heartbeat
    // wins the blame.
    f.feed("{\"event\":\"heartbeat\",\"task\":9}\n"
           "{\"event\":\"run\",\"bench\":\"gzip\"}\n");
    EXPECT_EQ(f.takeLines().size(), 2u);
    ASSERT_TRUE(f.lastHeartbeatTask(task));
    EXPECT_EQ(task, 9u);
}

TEST(ProgressFollower, FeedFdReassemblesAPipeStream)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ProgressFollower f;

    // Partial write: no newline yet, so bytes buffer but no line
    // surfaces.
    const char *head = "{\"event\":\"heartbeat\",\"ta";
    ASSERT_EQ(::write(fds[1], head, strlen(head)),
              static_cast<ssize_t>(strlen(head)));
    EXPECT_GT(f.feedFd(fds[0]), 0);
    EXPECT_FALSE(f.hasLines());
    EXPECT_EQ(f.pending(), strlen(head));

    const char *tail = "sk\":3}\n{\"event\":\"done\"}\n{\"torn";
    ASSERT_EQ(::write(fds[1], tail, strlen(tail)),
              static_cast<ssize_t>(strlen(tail)));
    EXPECT_GT(f.feedFd(fds[0]), 0);
    const auto lines = f.takeLines();
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "{\"event\":\"heartbeat\",\"task\":3}");
    EXPECT_EQ(lines[1], "{\"event\":\"done\"}");
    std::size_t task = 0;
    ASSERT_TRUE(f.lastHeartbeatTask(task));
    EXPECT_EQ(task, 3u);

    // Writer dies mid-line: EOF is reported as 0, and the torn tail
    // is never surfaced as a line — the whole-lines-only contract.
    ::close(fds[1]);
    EXPECT_EQ(f.feedFd(fds[0]), 0);
    EXPECT_FALSE(f.hasLines());
    EXPECT_EQ(f.pending(), strlen("{\"torn"));
    ::close(fds[0]);
}

/** @file Unit tests for the concurrent trace cache. */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "trace/spec_suite.hh"
#include "trace/trace_cache.hh"

using namespace microlib;

namespace
{

MaterializedTrace
smallTrace(const std::string &benchmark)
{
    return materialize(specProgram(benchmark), TraceWindow{0, 10'000});
}

} // namespace

TEST(TraceCache, GetMaterializesOnce)
{
    TraceCache cache;
    std::atomic<int> calls{0};
    auto make = [&] {
        calls.fetch_add(1);
        return smallTrace("swim");
    };
    const auto a = cache.get("swim", make);
    const auto b = cache.get("swim", make);
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(a.get(), b.get()); // literally the same object
    EXPECT_EQ(a->soa.size(), 10'000u);
    EXPECT_EQ(cache.traceCount(), 1u);
}

TEST(TraceCache, ClaimFulfillLifecycle)
{
    TraceCache cache;
    TraceCache::Future fut;
    ASSERT_EQ(cache.claim("k", fut), TraceCache::Claim::Owner);

    // A second claimant sees the entry in flight.
    TraceCache::Future fut2;
    EXPECT_EQ(cache.claim("k", fut2), TraceCache::Claim::Pending);

    // Once fulfilled, a claim finds it ready, holding the same trace.
    const TraceCache::TracePtr trace =
        cache.fulfill("k", smallTrace("gzip"));
    TraceCache::Future fut3;
    EXPECT_EQ(cache.claim("k", fut3), TraceCache::Claim::Ready);
    EXPECT_EQ(fut3.get().get(), trace.get());
    EXPECT_EQ(fut.get().get(), trace.get());
    EXPECT_EQ(fut2.get().get(), trace.get());
}

TEST(TraceCache, ConcurrentGetSharesOneMaterialization)
{
    TraceCache cache;
    std::atomic<int> calls{0};
    auto make = [&] {
        calls.fetch_add(1);
        return smallTrace("mcf");
    };
    std::vector<std::thread> threads;
    std::vector<TraceCache::TracePtr> got(8);
    for (int t = 0; t < 8; ++t)
        threads.emplace_back(
            [&, t] { got[t] = cache.get("mcf", make); });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(calls.load(), 1);
    for (int t = 1; t < 8; ++t)
        EXPECT_EQ(got[t].get(), got[0].get());
}

TEST(TraceCache, EvictAllowsRematerialization)
{
    TraceCache cache;
    std::atomic<int> calls{0};
    auto make = [&] {
        calls.fetch_add(1);
        return smallTrace("swim");
    };
    const auto a = cache.get("swim", make);
    cache.evict("swim");
    EXPECT_EQ(cache.traceCount(), 0u);
    const auto b = cache.get("swim", make);
    EXPECT_EQ(calls.load(), 2);
    // The evicted trace stays valid for holders of the old pointer,
    // and re-materializes identically: eviction trades time, never
    // results.
    const TraceView va = a->view(), vb = b->view();
    ASSERT_EQ(va.size(), vb.size());
    for (std::size_t i = 0; i < va.size(); ++i) {
        EXPECT_EQ(va.pc[i], vb.pc[i]);
        EXPECT_EQ(va.addr[i], vb.addr[i]);
    }
}

TEST(TraceCache, FailedMaterializationRetries)
{
    TraceCache cache;
    std::atomic<int> calls{0};
    auto flaky = [&]() -> MaterializedTrace {
        if (calls.fetch_add(1) == 0)
            throw std::runtime_error("boom");
        return smallTrace("gzip");
    };
    EXPECT_THROW(cache.get("gzip", flaky), std::runtime_error);
    const auto ok = cache.get("gzip", flaky);
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(ok->soa.size(), 10'000u);
}

TEST(TraceCache, ClearDropsTracesKeepsSimPoints)
{
    TraceCache cache;
    cache.get("swim", [] { return smallTrace("swim"); });
    const SimPointChoice sp = cache.simPoint("swim", 100'000, 4);
    EXPECT_EQ(cache.traceCount(), 1u);
    EXPECT_EQ(cache.simPointCount(), 1u);
    cache.clear();
    EXPECT_EQ(cache.traceCount(), 0u);
    EXPECT_EQ(cache.simPointCount(), 1u);
    // Cached choice still served, and stable.
    const SimPointChoice again = cache.simPoint("swim", 100'000, 4);
    EXPECT_EQ(sp.start_instruction, again.start_instruction);
}

TEST(TraceCache, SimPointMatchesDirectComputation)
{
    TraceCache cache;
    const SimPointChoice cached = cache.simPoint("crafty", 100'000, 4);
    const SimPointChoice direct =
        findSimPoint(specProgram("crafty"), 100'000, 4);
    EXPECT_EQ(cached.start_instruction, direct.start_instruction);
    EXPECT_EQ(cached.interval_index, direct.interval_index);
}

TEST(TraceCache, SimPointConcurrentCallsAgree)
{
    TraceCache cache;
    std::vector<std::thread> threads;
    std::vector<SimPointChoice> got(8);
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            got[t] = cache.simPoint("gzip", 100'000, 4);
        });
    for (auto &t : threads)
        t.join();
    for (int t = 1; t < 8; ++t)
        EXPECT_EQ(got[t].start_instruction, got[0].start_instruction);
    EXPECT_EQ(cache.simPointCount(), 1u);
}

TEST(TraceCache, DistinctKeysDistinctEntries)
{
    TraceCache cache;
    cache.get("a", [] { return smallTrace("swim"); });
    cache.get("b", [] { return smallTrace("swim"); });
    EXPECT_EQ(cache.traceCount(), 2u);
}

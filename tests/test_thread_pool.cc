/** @file Unit tests for the persistent worker pool. */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>

#include "sim/thread_pool.hh"

using namespace microlib;

TEST(ThreadPool, InlineModeRunsOnCaller)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.size(), 0u);
    const auto caller = std::this_thread::get_id();
    std::thread::id ran_on;
    pool.submit([&] { ran_on = std::this_thread::get_id(); });
    EXPECT_EQ(ran_on, caller);
    pool.wait(); // no-op, must not deadlock
}

TEST(ThreadPool, RunsEveryJob)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 50; ++i)
            pool.submit([&] { count.fetch_add(1); });
        pool.wait();
        EXPECT_EQ(count.load(), (round + 1) * 50);
    }
}

TEST(ThreadPool, DestructorDrainsQueue)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i)
            pool.submit([&] { count.fetch_add(1); });
        // No wait(): the destructor must finish the backlog.
    }
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, JobsRunOnWorkerThreads)
{
    ThreadPool pool(2);
    const auto caller = std::this_thread::get_id();
    std::mutex mu;
    std::set<std::thread::id> ids;
    for (int i = 0; i < 64; ++i)
        pool.submit([&] {
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
        });
    pool.wait();
    EXPECT_FALSE(ids.empty());
    EXPECT_EQ(ids.count(caller), 0u);
    EXPECT_LE(ids.size(), 2u);
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv)
{
    setenv("MICROLIB_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    setenv("MICROLIB_THREADS", "0", 1);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
    unsetenv("MICROLIB_THREADS");
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

TEST(ThreadPool, MalformedEnvFallsBackToHardware)
{
    // A signed or non-numeric MICROLIB_THREADS is ignored with a
    // warning, not wrapped to 2^32-1 threads or read as 0 by atoi.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (const char *bad : {"-1", "abc", "4x", "99999999999"}) {
        setenv("MICROLIB_THREADS", bad, 1);
        EXPECT_EQ(ThreadPool::defaultThreadCount(), hw) << bad;
    }
    unsetenv("MICROLIB_THREADS");
}

#include "sim/thread_pool.hh"

#include <limits>

#include "sim/options.hh"

namespace microlib
{

ThreadPool::ThreadPool(unsigned workers)
{
    _workers.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        _workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(_mu);
        _stopping = true;
    }
    _work_ready.notify_all();
    for (auto &w : _workers)
        w.join();
}

void
ThreadPool::submit(Job job)
{
    if (_workers.empty()) {
        job();
        return;
    }
    {
        std::unique_lock<std::mutex> lock(_mu);
        _queue.push_back(std::move(job));
        ++_in_flight;
    }
    _work_ready.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(_mu);
    _idle.wait(lock, [this] { return _in_flight == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(_mu);
            _work_ready.wait(lock, [this] {
                return _stopping || !_queue.empty();
            });
            if (_queue.empty())
                return; // stopping and drained
            job = std::move(_queue.front());
            _queue.pop_front();
        }
        job();
        {
            std::unique_lock<std::mutex> lock(_mu);
            if (--_in_flight == 0)
                _idle.notify_all();
        }
    }
}

unsigned
ThreadPool::defaultThreadCount()
{
    unsigned threads = std::thread::hardware_concurrency();
    if (const auto env = envCount("MICROLIB_THREADS",
                                  std::numeric_limits<unsigned>::max()))
        threads = static_cast<unsigned>(*env);
    return threads == 0 ? 1 : threads;
}

} // namespace microlib

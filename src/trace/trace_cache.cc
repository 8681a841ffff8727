#include "trace/trace_cache.hh"

#include <chrono>

#include "sim/logging.hh"
#include "trace/spec_suite.hh"

namespace microlib
{

TraceCache::Claim
TraceCache::claim(const std::string &key, Future &out)
{
    std::unique_lock<std::mutex> lock(_mu);
    auto it = _traces.find(key);
    if (it != _traces.end()) {
        out = it->second;
        return out.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready
                   ? Claim::Ready
                   : Claim::Pending;
    }
    std::promise<TracePtr> promise;
    out = promise.get_future().share();
    _traces.emplace(key, out);
    _inflight.emplace(key, std::move(promise));
    return Claim::Owner;
}

TraceCache::TracePtr
TraceCache::fulfill(const std::string &key, MaterializedTrace trace)
{
    TracePtr ptr =
        std::make_shared<const MaterializedTrace>(std::move(trace));
    std::promise<TracePtr> promise;
    {
        std::unique_lock<std::mutex> lock(_mu);
        auto it = _inflight.find(key);
        if (it == _inflight.end())
            panic("fulfill() without claim() for trace key ", key);
        promise = std::move(it->second);
        _inflight.erase(it);
    }
    promise.set_value(ptr);
    return ptr;
}

void
TraceCache::fail(const std::string &key, std::exception_ptr err)
{
    std::promise<TracePtr> promise;
    {
        std::unique_lock<std::mutex> lock(_mu);
        auto it = _inflight.find(key);
        if (it == _inflight.end())
            panic("fail() without claim() for trace key ", key);
        promise = std::move(it->second);
        _inflight.erase(it);
        _traces.erase(key); // let a later caller retry
    }
    promise.set_exception(err);
}

TraceCache::TracePtr
TraceCache::get(const std::string &key, const Materializer &make)
{
    Future fut;
    switch (claim(key, fut)) {
      case Claim::Ready:
      case Claim::Pending:
        return fut.get();
      case Claim::Owner:
        break;
    }
    try {
        fulfill(key, make());
    } catch (...) {
        fail(key, std::current_exception());
        throw;
    }
    return fut.get();
}

void
TraceCache::evict(const std::string &key)
{
    std::unique_lock<std::mutex> lock(_mu);
    if (_inflight.count(key))
        panic("evict() of in-flight trace key ", key);
    _traces.erase(key);
}

void
TraceCache::clear()
{
    std::unique_lock<std::mutex> lock(_mu);
    if (!_inflight.empty())
        panic("clear() with in-flight trace materializations");
    _traces.clear();
}

std::size_t
TraceCache::traceCount() const
{
    std::unique_lock<std::mutex> lock(_mu);
    return _traces.size();
}

void
TraceCache::setArena(std::shared_ptr<TraceArena> arena)
{
    std::unique_lock<std::mutex> lock(_mu);
    _arena = std::move(arena);
}

std::shared_ptr<TraceArena>
TraceCache::arena() const
{
    std::unique_lock<std::mutex> lock(_mu);
    return _arena;
}

SimPointChoice
TraceCache::simPoint(const std::string &benchmark,
                     std::uint64_t interval, unsigned k)
{
    std::string key = benchmark;
    key += '\0';
    key += std::to_string(interval);
    key += '\0';
    key += std::to_string(k);

    std::shared_future<SimPointChoice> fut;
    bool owner = false;
    std::promise<SimPointChoice> promise;
    {
        std::unique_lock<std::mutex> lock(_sp_mu);
        auto it = _simpoints.find(key);
        if (it != _simpoints.end()) {
            fut = it->second;
        } else {
            fut = promise.get_future().share();
            _simpoints.emplace(key, fut);
            owner = true;
        }
    }
    // findSimPoint profiles the whole benchmark: far too slow to run
    // under the lock, and running it twice would waste minutes.
    if (owner) {
        try {
            promise.set_value(findSimPoint(specProgram(benchmark),
                                           interval, k));
        } catch (...) {
            {
                std::unique_lock<std::mutex> lock(_sp_mu);
                _simpoints.erase(key); // let a later caller retry
            }
            promise.set_exception(std::current_exception());
        }
    }
    return fut.get();
}

std::size_t
TraceCache::simPointCount() const
{
    std::unique_lock<std::mutex> lock(_sp_mu);
    return _simpoints.size();
}

TraceCache &
TraceCache::process()
{
    static TraceCache cache;
    return cache;
}

} // namespace microlib

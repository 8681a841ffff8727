#include "core/supervisor.hh"

#include <unistd.h>

#include <iterator>

#include "core/progress.hh"

namespace microlib
{

std::size_t
ProgressFollower::feed(const char *data, std::size_t n)
{
    _buf.append(data, n);
    // Surface every completed line; the unterminated tail stays
    // buffered (it may be half a line — the next chunk finishes it,
    // or EOF orphans it).
    std::size_t completed = 0;
    std::size_t start = 0;
    for (;;) {
        const auto nl = _buf.find('\n', start);
        if (nl == std::string::npos)
            break;
        std::string line = _buf.substr(start, nl - start);
        start = nl + 1;
        ++completed;
        if (line.empty())
            continue;
        std::string event;
        std::uint64_t task = 0;
        if (jsonFindString(line, "event", event) &&
            event == "heartbeat" && jsonFindU64(line, "task", task)) {
            _has_task = true;
            _task = static_cast<std::size_t>(task);
        }
        _lines.push_back(std::move(line));
    }
    _buf.erase(0, start);
    return completed;
}

int
ProgressFollower::feedFd(int fd)
{
    char chunk[4096];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0)
        feed(chunk, static_cast<std::size_t>(n));
    return static_cast<int>(n);
}

bool
ProgressFollower::nextLine(std::string &line)
{
    if (_lines.empty())
        return false;
    line = std::move(_lines.front());
    _lines.pop_front();
    return true;
}

std::vector<std::string>
ProgressFollower::takeLines()
{
    std::vector<std::string> out(std::make_move_iterator(_lines.begin()),
                                 std::make_move_iterator(_lines.end()));
    _lines.clear();
    return out;
}

bool
ProgressFollower::lastHeartbeatTask(std::size_t &task) const
{
    if (!_has_task)
        return false;
    task = _task;
    return true;
}

SupervisionVerdict
SweepSupervisor::decide(const WorkerFailure &failure)
{
    SupervisionVerdict verdict;
    const std::string who = "worker " + std::to_string(failure.worker) +
                            (failure.stalled ? " stalled (" : " died (") +
                            failure.detail + "); ";

    // Strikes come before the retry budget: if this failure tips the
    // blamed task into quarantine, the restart is free — the thing
    // that was killing the worker is gone, so the host-health budget
    // should not be charged for it (and is reset outright, so a
    // worker that burned retries on a poison task gets its full
    // budget back for the rest of the plan).
    if (failure.has_task && _policy.quarantine_strikes > 0 &&
        !isQuarantined(failure.task)) {
        const std::size_t strikes = ++_strikes[failure.task];
        if (strikes >= _policy.quarantine_strikes) {
            _quarantined.push_back(failure.task);
            _retries[failure.worker] = 0;
            verdict.action = SupervisionVerdict::Action::Restart;
            verdict.quarantined = true;
            verdict.task = failure.task;
            verdict.delay_s = 0.0;
            verdict.why = who + "task " + std::to_string(failure.task) +
                          " quarantined after " +
                          std::to_string(strikes) + " strikes";
            return verdict;
        }
    }

    const std::size_t retries = ++_retries[failure.worker];
    if (retries > _policy.max_worker_retries) {
        verdict.action = SupervisionVerdict::Action::GiveUp;
        verdict.why = who + "retry budget of " +
                      std::to_string(_policy.max_worker_retries) +
                      " exhausted";
        return verdict;
    }

    double delay = _policy.backoff_initial_s;
    for (std::size_t i = 1; i < retries; ++i)
        delay *= 2.0;
    if (delay > _policy.backoff_max_s)
        delay = _policy.backoff_max_s;

    verdict.action = SupervisionVerdict::Action::Restart;
    verdict.delay_s = delay;
    verdict.why = who + "restart " + std::to_string(retries) + "/" +
                  std::to_string(_policy.max_worker_retries);
    return verdict;
}

bool
SweepSupervisor::isQuarantined(std::size_t task) const
{
    for (const std::size_t q : _quarantined)
        if (q == task)
            return true;
    return false;
}

std::size_t
SweepSupervisor::strikes(std::size_t task) const
{
    const auto it = _strikes.find(task);
    return it == _strikes.end() ? 0 : it->second;
}

std::size_t
SweepSupervisor::retries(std::size_t worker) const
{
    const auto it = _retries.find(worker);
    return it == _retries.end() ? 0 : it->second;
}

} // namespace microlib

#include "sim/fault.hh"

#include <fcntl.h>
#include <time.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "sim/logging.hh"
#include "sim/options.hh"

namespace microlib
{

namespace
{

const char *
kindWord(FaultKind k)
{
    return k == FaultKind::Crash ? "crash" : "hang";
}

} // namespace

std::string
FaultClause::str() const
{
    std::string out = kindWord(kind);
    out += '@';
    out += std::to_string(task);
    out += ':';
    out += std::to_string(count);
    return out;
}

bool
FaultPlan::parse(const std::string &text, FaultPlan &out,
                 std::string *error)
{
    out.clauses.clear();
    auto fail = [&](const std::string &why) {
        if (error)
            *error = "MICROLIB_FAULT '" + text + "': " + why;
        return false;
    };

    std::vector<std::string> parts;
    std::string cur;
    for (const char c : text) {
        if (c == ',' || c == '|') {
            parts.push_back(cur);
            cur.clear();
        } else if (!std::isspace(static_cast<unsigned char>(c))) {
            cur += c;
        }
    }
    parts.push_back(cur);

    for (const std::string &part : parts) {
        if (part.empty())
            continue;
        FaultClause clause;
        const auto at = part.find('@');
        if (at == std::string::npos)
            return fail("clause '" + part + "' has no '@'");
        const std::string kind = part.substr(0, at);
        if (kind == "crash")
            clause.kind = FaultKind::Crash;
        else if (kind == "hang")
            clause.kind = FaultKind::Hang;
        else
            return fail("unknown kind '" + kind +
                        "' (want crash or hang)");
        std::string rest = part.substr(at + 1);
        const auto colon = rest.find(':');
        if (colon != std::string::npos) {
            if (!parseCount(rest.substr(colon + 1), clause.count))
                return fail("bad count in '" + part + "'");
            if (clause.count == 0)
                return fail("zero count in '" + part + "'");
            rest = rest.substr(0, colon);
        }
        if (!parseCount(rest, clause.task))
            return fail("bad task index in '" + part + "'");
        for (const FaultClause &c : out.clauses)
            if (c.task == clause.task)
                return fail("duplicate task " +
                            std::to_string(clause.task));
        out.clauses.push_back(clause);
    }
    return true;
}

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

void
FaultInjector::armFromEnv()
{
    std::lock_guard<std::mutex> lock(_mu);
    const char *env = std::getenv("MICROLIB_FAULT");
    const std::string text = env ? env : "";
    const char *state = std::getenv("MICROLIB_FAULT_STATE");
    _state_path = state ? state : "";
    if (text == _text)
        return; // same plan: keep the in-memory firing counts
    _text = text;
    std::string error;
    if (!FaultPlan::parse(text, _plan, &error))
        fatal(error); // a mistyped injection must never run silently
    _fired.assign(_plan.clauses.size(), 0);
}

std::size_t
FaultInjector::firedCount(const FaultClause &clause)
{
    if (_state_path.empty())
        return 0; // caller combines with the in-memory count
    // Re-read on every (matching) checkpoint: other incarnations of
    // this worker may have appended since we last looked, and a
    // matching checkpoint is rare enough that the read is free.
    std::ifstream in(_state_path);
    std::size_t fired = 0;
    std::string line;
    const std::string want = clause.str();
    while (std::getline(in, line))
        if (line == want)
            ++fired;
    return fired;
}

void
FaultInjector::recordFiring(const FaultClause &clause)
{
    if (_state_path.empty())
        return;
    // O_APPEND + one write(): concurrent workers never tear a line,
    // and fsync lands the firing before the fault acts — a crash
    // must not forget it crashed, or crash@N:1 loops forever.
    const int fd = ::open(_state_path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
        warn("fault state: cannot open ", _state_path);
        return;
    }
    const std::string line = clause.str() + "\n";
    if (::write(fd, line.c_str(), line.size()) !=
        static_cast<ssize_t>(line.size()))
        warn("fault state: short write to ", _state_path);
    ::fsync(fd);
    ::close(fd);
}

void
FaultInjector::checkpoint(std::size_t task)
{
    std::unique_lock<std::mutex> lock(_mu);
    for (std::size_t i = 0; i < _plan.clauses.size(); ++i) {
        const FaultClause &clause = _plan.clauses[i];
        if (clause.task != task)
            continue;
        const std::size_t fired = firedCount(clause) + _fired[i];
        if (fired >= clause.count)
            return;
        ++_fired[i];
        recordFiring(clause);
        if (clause.kind == FaultKind::Crash) {
            // Die the way a real bug would: by signal, with no exit
            // handlers — the store sees nothing of this task.
            std::fprintf(stderr, "fault injection: %s firing\n",
                         clause.str().c_str());
            std::fflush(stderr);
            std::abort();
        }
        // Hang: stop making progress but stay alive, exactly the
        // shape heartbeat stall detection exists for. Sleep rather
        // than spin so a CI box full of hung workers stays usable.
        std::fprintf(stderr, "fault injection: %s firing\n",
                     clause.str().c_str());
        std::fflush(stderr);
        lock.unlock();
        for (;;) {
            struct timespec ts = {0, 50 * 1000 * 1000};
            nanosleep(&ts, nullptr);
        }
    }
}

} // namespace microlib

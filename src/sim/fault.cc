#include "sim/fault.hh"

#include <time.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>

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

std::string
FaultPlan::str() const
{
    std::string out;
    for (const FaultClause &clause : clauses) {
        if (!out.empty())
            out += ',';
        out += clause.str();
    }
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
    if (text == _text)
        return;
    _text = text;
    std::string error;
    if (!FaultPlan::parse(text, _plan, &error))
        fatal(error); // a mistyped injection must never run silently
}

const FaultClause *
FaultInjector::clauseAt(std::size_t task) const
{
    for (const FaultClause &clause : _plan.clauses)
        if (clause.task == task)
            return &clause;
    return nullptr;
}

void
FaultInjector::fire(const FaultClause &clause)
{
    std::fprintf(stderr, "fault injection: %s firing\n",
                 clause.str().c_str());
    std::fflush(stderr);
    // Crash: die the way a real bug would, by signal, with no exit
    // handlers — the store sees nothing of this task.
    if (clause.kind == FaultKind::Crash)
        std::abort();
    // Hang: stop making progress but stay alive, exactly the shape
    // heartbeat stall detection exists for. Sleep rather than spin so
    // a CI box full of hung workers stays usable.
    for (;;) {
        struct timespec ts = {0, 50 * 1000 * 1000};
        nanosleep(&ts, nullptr);
    }
}

} // namespace microlib

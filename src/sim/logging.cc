#include "sim/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace microlib
{

namespace
{
/** Serializes output: experiment workers log concurrently. */
std::mutex log_mu;
}

namespace detail
{

void
panicImpl(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const std::string &msg, const char *file, int line)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(log_mu);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    std::lock_guard<std::mutex> lock(log_mu);
    std::fprintf(stdout, "info: %s\n", msg.c_str());
}

} // namespace detail

} // namespace microlib

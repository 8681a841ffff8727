/**
 * @file
 * Error and status reporting, following the gem5 fatal/panic split.
 *
 * panic()  — an internal invariant was violated: a MicroLib bug.
 *            Aborts so a debugger or core dump can capture state.
 * fatal()  — the user asked for something impossible (bad parameter,
 *            inconsistent configuration). Exits with an error code.
 * warn()   — something is modeled approximately; results are usable.
 * inform() — plain status output.
 */

#ifndef MICROLIB_SIM_LOGGING_HH
#define MICROLIB_SIM_LOGGING_HH

#include <sstream>
#include <string>
#include <utility>

namespace microlib
{

namespace detail
{

/** Concatenate a variadic pack into one string via a stream. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const std::string &msg, const char *file,
                            int line);
[[noreturn]] void fatalImpl(const std::string &msg, const char *file,
                            int line);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort on a simulator bug. */
#define panic(...)                                                         \
    ::microlib::detail::panicImpl(::microlib::detail::concat(__VA_ARGS__), \
                                  __FILE__, __LINE__)

/** Exit on a user configuration error. */
#define fatal(...)                                                         \
    ::microlib::detail::fatalImpl(::microlib::detail::concat(__VA_ARGS__), \
                                  __FILE__, __LINE__)

/** Non-fatal modeling warning. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...));
}

/** Status message. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace microlib

#endif // MICROLIB_SIM_LOGGING_HH

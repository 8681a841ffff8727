/**
 * @file
 * Minimal stream-socket plumbing for the sweep service.
 *
 * One address syntax everywhere (daemon --listen, worker/client
 * --service):
 *
 *   unix:/path/to/socket    AF_UNIX stream socket (same host — the
 *                           default deployment: daemon + workers
 *                           sharing a filesystem for store merges)
 *   host:port               TCP (workers on other hosts; the store
 *                           paths they advertise must still be
 *                           reachable by the daemon, e.g. shared fs)
 *
 * listenOn()/connectTo() return plain fds — the daemon's poll loop
 * wants raw descriptors, not an abstraction. LineSocket is the
 * blocking request/reply convenience for clients and workers: send a
 * line with core/progress.hh's appendLine, receive through a
 * ProgressFollower (core/supervisor.hh) — the one whole-lines-only
 * reassembler, since a recv can return any byte split. All callers
 * must ignoreSigpipe() once: a peer hanging up mid-write must
 * surface as an error return, not SIGPIPE death.
 */

#ifndef MICROLIB_SERVICE_NET_HH
#define MICROLIB_SERVICE_NET_HH

#include <string>

#include "core/supervisor.hh"

namespace microlib
{

/** Process-wide SIG_IGN for SIGPIPE; call once from main()/loop
 *  entry. Idempotent. */
void ignoreSigpipe();

/** Whether @p addr uses the unix: scheme. */
bool isUnixAddr(const std::string &addr);

/**
 * Bind and listen on @p addr. A unix: path is unlinked first (a
 * previous daemon's stale socket, not a live one — deployments
 * serialize daemons per socket path). Returns the listening fd, or
 * -1 with *error set.
 */
int listenOn(const std::string &addr, std::string *error);

/** Connect to @p addr; the fd, or -1 with *error set. */
int connectTo(const std::string &addr, std::string *error);

/**
 * The bound address of listening fd @p fd in the same syntax
 * accepted by connectTo — most usefully resolving a `host:0`
 * ephemeral TCP port to the real one (tests bind port 0).
 */
std::string boundAddr(int fd, const std::string &requested);

/**
 * Blocking line-oriented view of a connected stream socket; owns
 * and closes the fd. sendLine appends the newline; recvLine strips
 * it. Both return false on EOF or error — the connection is then
 * dead (lost() stays true).
 */
class LineSocket
{
  public:
    LineSocket() = default;
    explicit LineSocket(int fd) : _fd(fd) {}
    ~LineSocket() { close(); }

    LineSocket(const LineSocket &) = delete;
    LineSocket &operator=(const LineSocket &) = delete;

    int fd() const { return _fd; }
    bool lost() const { return _fd < 0; }

    bool sendLine(const std::string &line);
    bool recvLine(std::string &line);

    /** One request/reply round trip: sendLine, then recvLine. */
    bool exchange(const std::string &request, std::string &reply)
    {
        return sendLine(request) && recvLine(reply);
    }

    void close();

  private:
    int _fd = -1;
    ProgressFollower _in; ///< received lines, reassembled
};

} // namespace microlib

#endif // MICROLIB_SERVICE_NET_HH

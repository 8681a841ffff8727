#include "service/net.hh"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/progress.hh"

namespace microlib
{

namespace
{

constexpr const char *unix_scheme = "unix:";

bool
setError(std::string *error, const std::string &what)
{
    if (error)
        *error = what + ": " + std::strerror(errno);
    return false;
}

/** Split "host:port" at the LAST colon (IPv6-literal friendly). */
bool
splitHostPort(const std::string &addr, std::string &host,
              std::string &port)
{
    const auto colon = addr.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= addr.size())
        return false;
    host = addr.substr(0, colon);
    port = addr.substr(colon + 1);
    return true;
}

int
listenUnix(const std::string &path, std::string *error)
{
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (path.size() >= sizeof(sa.sun_path)) {
        if (error)
            *error = "unix socket path too long: " + path;
        return -1;
    }
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    ::unlink(path.c_str()); // stale socket from a previous daemon
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        setError(error, "socket");
        return -1;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&sa), sizeof(sa)) < 0 ||
        ::listen(fd, 64) < 0) {
        setError(error, "bind/listen " + path);
        ::close(fd);
        return -1;
    }
    return fd;
}

int
connectUnix(const std::string &path, std::string *error)
{
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    if (path.size() >= sizeof(sa.sun_path)) {
        if (error)
            *error = "unix socket path too long: " + path;
        return -1;
    }
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        setError(error, "socket");
        return -1;
    }
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                  sizeof(sa)) < 0) {
        setError(error, "connect " + path);
        ::close(fd);
        return -1;
    }
    return fd;
}

int
tcpSocket(const std::string &addr, bool listening, std::string *error)
{
    std::string host, port;
    if (!splitHostPort(addr, host, port)) {
        if (error)
            *error = "bad address '" + addr +
                     "' (want unix:/path or host:port)";
        return -1;
    }
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    if (listening)
        hints.ai_flags = AI_PASSIVE;
    addrinfo *res = nullptr;
    const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints,
                                 &res);
    if (rc != 0) {
        if (error)
            *error = "resolve " + addr + ": " + gai_strerror(rc);
        return -1;
    }
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (listening) {
            const int one = 1;
            ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof(one));
            if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
                ::listen(fd, 64) == 0)
                break;
        } else if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
            break;
        }
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0)
        setError(error, (listening ? "listen " : "connect ") + addr);
    return fd;
}

} // namespace

void
ignoreSigpipe()
{
    ::signal(SIGPIPE, SIG_IGN);
}

bool
isUnixAddr(const std::string &addr)
{
    return addr.rfind(unix_scheme, 0) == 0;
}

int
listenOn(const std::string &addr, std::string *error)
{
    if (isUnixAddr(addr))
        return listenUnix(addr.substr(std::strlen(unix_scheme)),
                          error);
    return tcpSocket(addr, true, error);
}

int
connectTo(const std::string &addr, std::string *error)
{
    if (isUnixAddr(addr))
        return connectUnix(addr.substr(std::strlen(unix_scheme)),
                           error);
    return tcpSocket(addr, false, error);
}

std::string
boundAddr(int fd, const std::string &requested)
{
    if (isUnixAddr(requested))
        return requested;
    sockaddr_storage ss{};
    socklen_t len = sizeof(ss);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&ss), &len) != 0)
        return requested;
    char host[NI_MAXHOST];
    char port[NI_MAXSERV];
    if (::getnameinfo(reinterpret_cast<sockaddr *>(&ss), len, host,
                      sizeof(host), port, sizeof(port),
                      NI_NUMERICHOST | NI_NUMERICSERV) != 0)
        return requested;
    std::string h(host);
    if (h.find(':') != std::string::npos)
        h = "[" + h + "]"; // IPv6 literal... (informational only)
    return h + ":" + port;
}

bool
LineSocket::sendLine(const std::string &line)
{
    if (_fd >= 0 && !appendLine(_fd, line))
        close();
    return _fd >= 0;
}

bool
LineSocket::recvLine(std::string &line)
{
    while (_fd >= 0) {
        if (_in.nextLine(line))
            return true;
        // EOF (the peer finished; a torn tail is dropped) or a hard
        // error ends the connection.
        const int n = _in.feedFd(_fd);
        if (n == 0 || (n < 0 && errno != EINTR))
            close();
    }
    return false;
}

void
LineSocket::close()
{
    if (_fd >= 0)
        ::close(_fd);
    _fd = -1;
}

} // namespace microlib

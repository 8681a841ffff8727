#include "core/progress.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <filesystem>

#include "sim/logging.hh"
#include "sim/options.hh"

namespace microlib
{

namespace
{

/** Append @p s to @p out with JSON string escaping (quotes,
 *  backslash, control chars). */
void
appendEscaped(std::string &out, const std::string &s)
{
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

/** Locate the value start of `"key":` in @p line, or npos. Safe
 *  against keys occurring inside string values: every interior quote
 *  of a well-formed value is escaped (\"), so the raw byte sequence
 *  `"key":` can only open a real field. */
std::size_t
valueStart(const std::string &line, const std::string &key)
{
    const std::string token = "\"" + key + "\":";
    const auto at = line.find(token);
    if (at == std::string::npos)
        return std::string::npos;
    return at + token.size();
}

/** Read the unsigned number at @p at and advance past its digits.
 *  The number is the digit run there: a sign, a blank or an overflow
 *  is malformed (strtoull would accept the first two). */
bool
readNumber(const std::string &line, std::size_t &at, std::uint64_t &out)
{
    const std::size_t end =
        std::min(line.find_first_not_of("0123456789", at), line.size());
    const bool ok = parseCount(line.substr(at, end - at), out);
    at = end;
    return ok;
}

/** Unescape one JSON string body starting at @p at (just past the
 *  opening quote); false on a malformed escape or a missing closing
 *  quote. */
bool
unescapeFrom(const std::string &line, std::size_t at, std::string &out)
{
    out.clear();
    while (at < line.size()) {
        const char c = line[at];
        if (c == '"')
            return true;
        if (c != '\\') {
            out += c;
            ++at;
            continue;
        }
        if (at + 1 >= line.size())
            return false;
        // One-character escapes, in the same order as their bytes.
        static const std::string escapes = "\"\\/ntr";
        static const std::string bytes = "\"\\/\n\t\r";
        const char esc = line[at + 1];
        if (const auto k = escapes.find(esc); k != std::string::npos) {
            out += bytes[k];
            at += 2;
            continue;
        }
        if (esc != 'u' || at + 6 > line.size())
            return false;
        // Exactly four hex digits: from_chars takes no sign, space
        // or 0x prefix.
        const char *hex = line.data() + at + 2;
        unsigned v = 0;
        const auto [end, ec] = std::from_chars(hex, hex + 4, v, 16);
        if (ec != std::errc() || end != hex + 4 || v > 0xff)
            return false; // appendEscaped only emits \u00xx
        out += static_cast<char>(v);
        at += 6;
    }
    return false; // no closing quote
}

} // namespace

JsonLine::JsonLine(const char *kind, const std::string &name)
{
    _line = "{\"";
    _line += kind;
    _line += "\":\"";
    appendEscaped(_line, name);
    _line += '"';
}

std::string &
JsonLine::beginField(const char *key)
{
    _line += ",\"";
    _line += key;
    _line += "\":";
    return _line;
}

JsonLine &
JsonLine::field(const char *key, const std::string &value)
{
    beginField(key) += '"';
    appendEscaped(_line, value);
    _line += '"';
    return *this;
}

JsonLine &
JsonLine::field(const char *key, std::uint64_t value)
{
    beginField(key) += std::to_string(value);
    return *this;
}

JsonLine &
JsonLine::field(const char *key, double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", value);
    beginField(key) += buf;
    return *this;
}

JsonLine &
JsonLine::field(const char *key, const std::vector<std::size_t> &values)
{
    beginField(key) += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i)
            _line += ',';
        _line += std::to_string(values[i]);
    }
    _line += ']';
    return *this;
}

bool
protocolKind(const std::string &line, const std::string &key,
             std::string &out)
{
    // The first key must BE @p key: a relayed progress line contains
    // "event" first, and must not be mistaken for a request even if
    // a later field were named "cmd".
    const std::string prefix = "{\"" + key + "\":\"";
    if (line.rfind(prefix, 0) != 0)
        return false;
    return unescapeFrom(line, prefix.size(), out);
}

bool
jsonFindString(const std::string &line, const std::string &key,
               std::string &out)
{
    const auto at = valueStart(line, key);
    if (at == std::string::npos || at >= line.size() ||
        line[at] != '"')
        return false;
    return unescapeFrom(line, at + 1, out);
}

bool
jsonFindU64(const std::string &line, const std::string &key,
            std::uint64_t &out)
{
    std::size_t at = valueStart(line, key);
    return at != std::string::npos && readNumber(line, at, out);
}

bool
jsonFindArray(const std::string &line, const std::string &key,
              std::vector<std::size_t> &out)
{
    out.clear();
    auto at = valueStart(line, key);
    if (at == std::string::npos || at >= line.size() ||
        line[at] != '[')
        return false;
    ++at;
    if (at < line.size() && line[at] == ']')
        return true; // empty array
    for (;;) {
        std::uint64_t v = 0;
        if (!readNumber(line, at, v))
            return false;
        out.push_back(static_cast<std::size_t>(v));
        if (at >= line.size())
            return false; // unterminated array
        if (line[at] == ']')
            return true;
        if (line[at] != ',')
            return false;
        ++at;
    }
}

bool
appendLine(int fd, const std::string &line)
{
    const std::string out = line + '\n';
    std::size_t off = 0;
    while (off < out.size()) {
        const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

ProgressWriter::ProgressWriter(const std::string &path)
{
    if (path.empty())
        return;
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (!parent.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(parent, ec);
    }
    _fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                 0666);
    _owned = _fd >= 0;
    if (_fd < 0)
        warn("progress stream: cannot open ", path,
             "; progress reporting disabled");
}

ProgressWriter::~ProgressWriter()
{
    const int fd = _fd;
    if (_owned && fd >= 0)
        ::close(fd);
}

void
ProgressWriter::writeLine(const std::string &line)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(_mu);
    // One write loop per line, under the lock: a reader reassembling
    // the stream sees at worst a torn tail, never interleaved lines
    // (the engine's workers share this writer across threads). A
    // failed write (a socket's receiver hung up, a full disk) turns
    // progress into a no-op; a worker's own protocol I/O reports the
    // lost connection.
    const int fd = _fd.load();
    if (fd >= 0 && !appendLine(fd, line)) {
        if (_owned)
            ::close(fd);
        _fd = -1;
    }
}

} // namespace microlib

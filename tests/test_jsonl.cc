/** @file The JSONL wire format, pinned byte for byte: the progress
 *  stream (`{"event":...}`) and the sweep-service protocol
 *  (`{"cmd":...}` / `{"reply":...}`) share one escaping and number
 *  format, and perfbench, `tail -f` readers and remote pollers parse
 *  these exact bytes. Also pins the follower's contract on a pipe: a
 *  torn tail never counts and never blames, and the last complete
 *  heartbeat names the task in flight. */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/progress.hh"
#include "core/supervisor.hh"
#include "service/protocol.hh"

using namespace microlib;

namespace
{

void
writeAll(int fd, const std::string &bytes)
{
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
}

/** Read everything a non-blocking pipe holds into @p f; true when a
 *  line completed (the supervisor's liveness test). */
bool
pump(ProgressFollower &f, int fd)
{
    while (f.feedFd(fd) > 0) {
    }
    return !f.takeLines().empty();
}

} // namespace

TEST(JsonlWire, ProgressEventBytes)
{
    // Key order is call order; strings escape '"', '\\' and every
    // byte below 0x20 as \u00xx (lower-case hex); bytes >= 0x20,
    // DEL and UTF-8 included, pass through; u64 is plain decimal;
    // doubles are "%.3f".
    const std::string line =
        ProgressEvent("run")
            .field("bench", std::string("a\"b\\c"))
            .field("ctl", std::string("x\x01\n\ty\x1f\x7f"))
            .field("utf8", std::string("caf\xc3\xa9"))
            .field("mech", "GHB")
            .field("empty", std::string())
            .field("zero", std::uint64_t{0})
            .field("max", UINT64_MAX)
            .field("elapsed_s", 1.23456)
            .field("eta_s", 0.0)
            .field("big_s", 12345.6789)
            .str();
    EXPECT_EQ(line,
              "{\"event\":\"run\","
              "\"bench\":\"a\\\"b\\\\c\","
              "\"ctl\":\"x\\u0001\\u000a\\u0009y\\u001f\x7f\","
              "\"utf8\":\"caf\xc3\xa9\","
              "\"mech\":\"GHB\","
              "\"empty\":\"\","
              "\"zero\":0,"
              "\"max\":18446744073709551615,"
              "\"elapsed_s\":1.235,"
              "\"eta_s\":0.000,"
              "\"big_s\":12345.679}");

    // The name escapes like any value; a bare event is one key.
    EXPECT_EQ(ProgressEvent("we\"ird\n").str(),
              "{\"event\":\"we\\\"ird\\u000a\"}");
    EXPECT_EQ(ProgressEvent("shutdown").str(),
              "{\"event\":\"shutdown\"}");
}

TEST(JsonlWire, ProtocolMsgBytes)
{
    EXPECT_EQ(ProtocolMsg("cmd", "complete")
                  .field("job", "j\\1")
                  .field("tasks", std::vector<std::size_t>{3, 1, 4})
                  .field("none", std::vector<std::size_t>{})
                  .field("one", std::vector<std::size_t>{0})
                  .field("ok", std::uint64_t{1})
                  .field("error", std::string("bad\r\"x\""))
                  .str(),
              "{\"cmd\":\"complete\","
              "\"job\":\"j\\\\1\","
              "\"tasks\":[3,1,4],"
              "\"none\":[],"
              "\"one\":[0],"
              "\"ok\":1,"
              "\"error\":\"bad\\u000d\\\"x\\\"\"}");
    EXPECT_EQ(ProtocolMsg("reply", "lease\x02").str(),
              "{\"reply\":\"lease\\u0002\"}");
    EXPECT_EQ(ProtocolMsg("cmd", "lease").str(), "{\"cmd\":\"lease\"}");
}

TEST(JsonlWire, ReadersDecodeWhatTheBuildersWrite)
{
    const std::string nasty("q\"b\\s\x01\n\x1f end");
    for (const std::string &line :
         {ProgressEvent(nasty).field("v", nasty).str(),
          ProtocolMsg("reply", nasty).field("v", nasty).str()}) {
        std::string kind, v;
        ASSERT_TRUE(protocolKind(line, line[2] == 'e' ? "event" : "reply",
                                 kind))
            << line;
        EXPECT_EQ(kind, nasty);
        ASSERT_TRUE(jsonFindString(line, "v", v)) << line;
        EXPECT_EQ(v, nasty);
    }

    const std::string line = ProgressEvent("heartbeat")
                                 .field("task", std::uint64_t{12})
                                 .field("elapsed_s", 2.5)
                                 .str();
    std::uint64_t task = 0;
    ASSERT_TRUE(jsonFindU64(line, "task", task));
    EXPECT_EQ(task, 12u);
    std::string kind;
    EXPECT_FALSE(protocolKind(line, "cmd", kind));
}

TEST(JsonlWire, UnicodeEscapeTakesExactlyFourHexDigits)
{
    std::string v;
    ASSERT_TRUE(jsonFindString("{\"v\":\"\\u0041\"}", "v", v));
    EXPECT_EQ(v, "A");
    for (const char *bad : {"0x41", "+041", " 041"}) {
        const std::string line =
            std::string("{\"v\":\"\\u") + bad + "\"}";
        EXPECT_FALSE(jsonFindString(line, "v", v)) << line;
    }
}

TEST(JsonlWire, PipeFollowerTornTailAndInterleavedHeartbeats)
{
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);
    ProgressFollower follower;
    std::size_t task = 0;

    // Heartbeats interleaved with other events: the last complete
    // heartbeat is the blame, whatever follows it.
    writeAll(fds[1],
             "{\"event\":\"plan\",\"total\":8}\n"
             "{\"event\":\"heartbeat\",\"task\":3,\"bench\":\"swim\"}\n"
             "{\"event\":\"run\",\"task\":3}\n"
             "{\"event\":\"heartbeat\",\"task\":5,\"bench\":\"gzip\"}\n"
             "{\"event\":\"run\",\"task\":5}\n");
    EXPECT_FALSE(follower.lastHeartbeatTask(task));
    EXPECT_TRUE(pump(follower, fds[0]));
    ASSERT_TRUE(follower.lastHeartbeatTask(task));
    EXPECT_EQ(task, 5u);
    EXPECT_FALSE(pump(follower, fds[0])); // nothing new

    // A torn heartbeat: neither liveness nor blame, however many
    // times the pipe is read, until its newline lands.
    writeAll(fds[1], "{\"event\":\"heartbeat\",\"task\":6");
    EXPECT_FALSE(pump(follower, fds[0]));
    EXPECT_FALSE(pump(follower, fds[0]));
    ASSERT_TRUE(follower.lastHeartbeatTask(task));
    EXPECT_EQ(task, 5u);
    writeAll(fds[1], "}\n{\"event\":\"run\",\"ta");
    EXPECT_TRUE(pump(follower, fds[0]));
    ASSERT_TRUE(follower.lastHeartbeatTask(task));
    EXPECT_EQ(task, 6u);
    EXPECT_FALSE(pump(follower, fds[0])); // a torn tail: no liveness

    // The writer hanging up mid-line is not liveness either: EOF
    // leaves the torn tail buffered and the blame where it was.
    ::close(fds[1]);
    EXPECT_FALSE(pump(follower, fds[0]));
    EXPECT_EQ(follower.feedFd(fds[0]), 0);
    EXPECT_EQ(follower.pending(),
              std::string("{\"event\":\"run\",\"ta").size());
    ASSERT_TRUE(follower.lastHeartbeatTask(task));
    EXPECT_EQ(task, 6u);
    ::close(fds[0]);
}

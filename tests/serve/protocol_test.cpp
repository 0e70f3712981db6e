#include "serve/protocol.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>

#include "run/exit_codes.hpp"

namespace cohesion::serve {
namespace {

namespace fs = std::filesystem;

TEST(AddressTest, ParsesUnixAndTcpForms) {
  const Address u = Address::parse("unix:/tmp/cohesion.sock");
  EXPECT_TRUE(u.is_unix);
  EXPECT_EQ(u.path, "/tmp/cohesion.sock");
  EXPECT_NE(u.describe().find("/tmp/cohesion.sock"), std::string::npos);

  const Address t = Address::parse("127.0.0.1:9100");
  EXPECT_FALSE(t.is_unix);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 9100);

  const Address named = Address::parse("localhost:80");
  EXPECT_EQ(named.host, "localhost");
  EXPECT_EQ(named.port, 80);
}

TEST(AddressTest, RejectsMalformedForms) {
  EXPECT_THROW(Address::parse(""), std::runtime_error);
  EXPECT_THROW(Address::parse("unix:"), std::runtime_error);
  EXPECT_THROW(Address::parse("no-port"), std::runtime_error);
  EXPECT_THROW(Address::parse("host:notaport"), std::runtime_error);
  EXPECT_THROW(Address::parse("host:99999"), std::runtime_error);
  EXPECT_THROW(Address::parse("host:"), std::runtime_error);
}

TEST(LineConnectionTest, RoundTripsDocumentsOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineConnection a(fds[0]);
  LineConnection b(fds[1]);

  Json msg = Json::object();
  msg.set("op", "hello");
  msg.set("n", 42);
  a.send(msg);
  auto got = b.receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->string_or("op", ""), "hello");
  EXPECT_EQ(got->at("n").as_uint(), 42u);

  // Two messages written back to back arrive as two documents; the second
  // is visible via has_buffered_line before any further socket read.
  b.send(msg);
  b.send(Json::object());
  auto first = a.receive();
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(a.has_buffered_line());
  auto second = a.receive();
  ASSERT_TRUE(second.has_value());
}

TEST(LineConnectionTest, CleanEofIsNulloptMidLineEofThrows) {
  {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineConnection reader(fds[0]);
    LineConnection writer(fds[1]);
    writer.close_now();
    EXPECT_FALSE(reader.receive().has_value());
  }
  {
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineConnection reader(fds[0]);
    // Half a message, then the peer dies: torn data must not be parsed.
    const char torn[] = "{\"op\":\"tr";
    ASSERT_GT(::send(fds[1], torn, sizeof(torn) - 1, 0), 0);
    ::close(fds[1]);
    EXPECT_THROW(reader.receive(), run::TransientNetworkError);
  }
}

TEST(LineConnectionTest, InvalidJsonLineIsAProtocolBug) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineConnection reader(fds[0]);
  const char junk[] = "not json\n";
  ASSERT_GT(::send(fds[1], junk, sizeof(junk) - 1, 0), 0);
  ::close(fds[1]);
  EXPECT_THROW(
      {
        try {
          reader.receive();
        } catch (const run::TransientNetworkError&) {
          ADD_FAILURE() << "bad JSON is a bug, not a transient condition";
          throw;
        }
      },
      std::runtime_error);
}

// A peer that streams past kMaxLineBytes without a newline is refused by
// a named error instead of being buffered without bound.
TEST(LineConnectionTest, LineLongerThanTheCapIsRefusedByName) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  LineConnection reader(fds[0]);
  const int writer_fd = fds[1];
  std::thread writer([writer_fd] {
    const std::string chunk(std::size_t{1} << 16, 'x');
    // Runs until the reader hangs up (EPIPE).
    while (::send(writer_fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) > 0) {
    }
  });
  try {
    (void)reader.receive();
    ADD_FAILURE() << "an endless line was accepted";
  } catch (const run::TransientNetworkError& e) {
    ADD_FAILURE() << "an oversized line is a protocol violation, not transient: " << e.what();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("kMaxLineBytes"), std::string::npos) << e.what();
  }
  reader.close_now();
  writer.join();
  ::close(writer_fd);
}

TEST(UnixSocketTest, ListenConnectAcceptRoundTrip) {
  const std::string sock =
      (fs::temp_directory_path() / ("cohesion_proto_" + std::to_string(::getpid()) + ".sock"))
          .string();
  const Address addr = Address::parse("unix:" + sock);
  const int listen_fd = listen_on(addr);
  ASSERT_GE(listen_fd, 0);

  std::thread client([&] {
    LineConnection c(connect_to(addr, 5.0));
    Json hello = Json::object();
    hello.set("op", "hello");
    c.send(hello);
    auto reply = c.receive();
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->string_or("op", ""), "ack");
  });

  const int accepted = accept_on(listen_fd, 5.0);
  ASSERT_GE(accepted, 0);
  LineConnection server(accepted);
  auto msg = server.receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->string_or("op", ""), "hello");
  Json ack = Json::object();
  ack.set("op", "ack");
  server.send(ack);
  client.join();

  ::close(listen_fd);
  fs::remove(sock);
}

TEST(UnixSocketTest, StaleSocketPathIsReclaimedByListen) {
  const std::string sock =
      (fs::temp_directory_path() / ("cohesion_stale_" + std::to_string(::getpid()) + ".sock"))
          .string();
  const Address addr = Address::parse("unix:" + sock);
  const int first = listen_on(addr);
  ASSERT_GE(first, 0);
  ::close(first);  // dead daemon leaves the path behind
  const int second = listen_on(addr);
  EXPECT_GE(second, 0);
  ::close(second);
  fs::remove(sock);
}

TEST(UnixSocketTest, ConnectToAbsentDaemonIsTransientNetwork) {
  const std::string sock =
      (fs::temp_directory_path() / ("cohesion_nobody_" + std::to_string(::getpid()) + ".sock"))
          .string();
  fs::remove(sock);
  EXPECT_THROW(connect_to(Address::parse("unix:" + sock), 0.5), run::TransientNetworkError);
}

TEST(TcpSocketTest, ConnectRefusedIsTransientNetwork) {
  // Grab a free port by listening and closing: connecting to it afterwards
  // is refused, the canonical "daemon not up yet" condition. (parse()
  // rejects port 0 on purpose, so build the ephemeral-bind address by hand.)
  Address addr;
  addr.host = "127.0.0.1";
  addr.port = 0;
  const int listen_fd = listen_on(addr);
  ASSERT_GE(listen_fd, 0);
  sockaddr_storage ss{};
  socklen_t len = sizeof(ss);
  ASSERT_EQ(::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&ss), &len), 0);
  const std::uint16_t port =
      ntohs(reinterpret_cast<const sockaddr_in*>(&ss)->sin_port);
  ::close(listen_fd);
  EXPECT_THROW(connect_to(Address::parse("127.0.0.1:" + std::to_string(port)), 0.5),
               run::TransientNetworkError);
}

TEST(ExitCodeTest, TransientNetworkIsRetryable) {
  EXPECT_TRUE(run::exit_code_retryable(run::kExitTransientNetwork));
  EXPECT_EQ(run::kExitTransientNetwork, 5);
}

}  // namespace
}  // namespace cohesion::serve

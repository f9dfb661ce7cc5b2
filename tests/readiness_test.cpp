// READER readiness tests (DESIGN.md §16): the READER polls its own
// level-triggered epoll set, driven deterministically by calling body()
// directly (same technique as net_test.cpp). The contracts under test:
//   * an idle subscribed socket is reported once data arrives;
//   * level triggering — a socket stays reported while bytes remain, so a
//     burst larger than kReadBurst drains across rounds with no new data;
//   * a FIN after data delivers the tail, then exactly one EOF;
//   * multi-worker stress — two net workers, each READER with its own
//     epoll set, under the stealing scheduler (the TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/arena.hpp"
#include "concurrent/pool.hpp"
#include "core/runtime.hpp"
#include "net/actors.hpp"
#include "net/socket.hpp"
#include "net/socket_table.hpp"
#include "util/bytes.hpp"
#include "xmpp/client.hpp"
#include "xmpp/server.hpp"

namespace ea::net {
namespace {

using namespace std::chrono_literals;

template <typename Pred>
bool drive(core::Actor& actor, Pred pred,
           std::chrono::milliseconds limit = 5s) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    actor.body();
    std::this_thread::sleep_for(100us);
  }
  return pred();
}

// Writes all of `bytes` to a non-blocking socket, yielding on EAGAIN.
bool write_all(Socket& s, std::span<const std::uint8_t> bytes,
               std::chrono::milliseconds limit = 5s) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  std::size_t off = 0;
  while (off < bytes.size()) {
    long n = s.write_nb(bytes.subspan(off));
    if (n < 0) return false;
    if (n == 0) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(100us);
      continue;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

class ReadinessTest : public ::testing::Test {
 protected:
  ReadinessTest()
      : arena_(256, 1024),
        table_(std::make_shared<SocketTable>()),
        reader_("reader", table_, pool_) {
    pool_.adopt(arena_);
  }

  // One accepted connection: the client end stays a raw Socket owned by the
  // test, the server end goes into the shared table.
  struct Conn {
    Socket client;
    SocketId server = -1;
  };
  Conn connect_pair() {
    Conn c;
    Socket listener = Socket::listen_on(0);
    EXPECT_TRUE(listener.valid());
    c.client = Socket::connect_to("127.0.0.1", listener.local_port());
    EXPECT_TRUE(c.client.valid());
    std::optional<Socket> server;
    auto deadline = std::chrono::steady_clock::now() + 2s;
    while (!server.has_value() &&
           std::chrono::steady_clock::now() < deadline) {
      server = listener.accept_nb();
      std::this_thread::sleep_for(1ms);
    }
    EXPECT_TRUE(server.has_value());
    if (server.has_value()) c.server = table_->add(std::move(*server));
    return c;
  }

  void subscribe_reader(SocketId id, concurrent::Mbox& data) {
    concurrent::Node* n = pool_.get();
    ASSERT_NE(n, nullptr);
    ReadSubscribe sub;
    sub.socket = id;
    sub.data = &data;
    write_struct(*n, sub);
    reader_.requests().push(n);
    reader_.body();  // consume the subscription: the socket is registered
  }

  concurrent::NodeArena arena_;
  concurrent::Pool pool_;
  std::shared_ptr<SocketTable> table_;
  ReaderActor reader_;
};

TEST_F(ReadinessTest, DeliversReadEventsThroughReader) {
  Conn c = connect_pair();
  concurrent::Mbox data;
  subscribe_reader(c.server, data);
  for (int i = 0; i < 10; ++i) reader_.body();
  EXPECT_TRUE(data.empty());  // idle: nothing reported

  util::Bytes msg = util::to_bytes("wake on readiness");
  ASSERT_TRUE(write_all(c.client, msg));
  ASSERT_TRUE(drive(reader_, [&] { return !data.empty(); }));

  concurrent::NodeLease lease(data.pop());
  EXPECT_EQ(lease->view(), "wake on readiness");
  EXPECT_EQ(lease->tag, static_cast<std::uint64_t>(c.server));
}

TEST_F(ReadinessTest, BurstLargerThanReadBurstDrainsAcrossRounds) {
  Conn c = connect_pair();
  concurrent::Mbox data;
  subscribe_reader(c.server, data);

  // One burst larger than a READER round can drain (kReadBurst nodes of
  // 1024 bytes): level triggering keeps reporting the socket while bytes
  // remain, so it drains fully across rounds with no further data.
  const std::size_t kTotal = 20'000;
  static_assert(kTotal > kReadBurst * 1024);
  std::vector<std::uint8_t> blob(kTotal, 0xEA);
  ASSERT_TRUE(write_all(c.client, blob));

  std::size_t received = 0;
  auto consume = [&] {
    while (concurrent::Node* n = data.pop()) {
      concurrent::NodeLease lease(n);
      received += n->size;
    }
    return received >= kTotal;
  };
  ASSERT_TRUE(drive(reader_, consume));
  EXPECT_EQ(received, kTotal);

  // Drained to EAGAIN: the next data is reported again.
  received = 0;
  util::Bytes again = util::to_bytes("second burst");
  ASSERT_TRUE(write_all(c.client, again));
  ASSERT_TRUE(
      drive(reader_, [&] { return consume(), received >= again.size(); }));
  EXPECT_EQ(received, again.size());

  // Quiescent: every node (data, requests) is back in the pool.
  EXPECT_EQ(pool_.size(), pool_.capacity());
}

TEST_F(ReadinessTest, OrderlyCloseDrainsTailThenEofThroughReader) {
  Conn c = connect_pair();
  concurrent::Mbox data;
  subscribe_reader(c.server, data);

  util::Bytes tail = util::to_bytes("final bytes");
  ASSERT_TRUE(write_all(c.client, tail));
  c.client.close();  // FIN: EPOLLIN|EPOLLRDHUP, data still buffered

  std::string got;
  int eofs = 0;
  auto consume = [&] {
    while (concurrent::Node* n = data.pop()) {
      concurrent::NodeLease lease(n);
      if (n->size == 0) {
        ++eofs;
      } else {
        EXPECT_EQ(eofs, 0) << "data after EOF";
        got += std::string(n->view());
      }
    }
    return eofs > 0;
  };
  ASSERT_TRUE(drive(reader_, consume));
  // The EOF unregisters the socket: later rounds report it no more.
  for (int i = 0; i < 100; ++i) reader_.body();
  consume();
  EXPECT_EQ(got, "final bytes");
  EXPECT_EQ(eofs, 1);
  EXPECT_EQ(pool_.size(), pool_.capacity());
}

// The TSan target: two XMPP instances (two net workers, each READER with
// its own epoll set) under the stealing scheduler, hammered by concurrent
// client threads. Any lock-discipline slip between reader, writer, the
// stealing workers and the sharded tables shows up here.
TEST(ReadinessStress, MultiWorkerWatchersUnderStealingScheduler) {
  core::RuntimeOptions options;
  options.sched = core::SchedMode::kSteal;
  core::Runtime rt(options);

  xmpp::XmppServiceConfig config;
  config.instances = 2;
  config.trusted = false;
  xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);
  rt.start();

  constexpr int kClients = 8;
  constexpr int kEchoes = 20;
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      xmpp::Client me;
      const std::string jid = "stress" + std::to_string(i);
      if (!me.connect(service.port, jid)) return;
      int echoed = 0;
      for (int m = 0; m < kEchoes; ++m) {
        if (!me.send_chat(jid, "ping " + std::to_string(m))) break;
        auto reply = me.recv(5000);
        if (!reply.has_value() || reply->kind != "chat") break;
        ++echoed;
      }
      if (echoed == kEchoes) ok.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients);
  rt.stop();
}

}  // namespace
}  // namespace ea::net

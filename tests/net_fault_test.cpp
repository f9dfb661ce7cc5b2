// Network fault-injection tests (ctest label: fault).
//
// Drives READER/WRITER/CLOSER against real kernel sockets while the
// failpoints in Socket::read_nb/write_nb/accept_nb/connect_to inject short
// counts, EAGAIN storms and connection resets. The invariants under test:
// no byte is lost or reordered by short counts, no node ever leaks, and
// teardown happens exactly once. Bodies are invoked directly (no worker
// threads), so every schedule is deterministic.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/arena.hpp"
#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "net/actors.hpp"
#include "net/socket.hpp"
#include "net/socket_table.hpp"
#include "util/bytes.hpp"
#include "util/failpoint.hpp"

namespace fp = ea::util::failpoint;

namespace ea::net {
namespace {

using namespace std::chrono_literals;

class NetFaultTest : public ::testing::Test {
 protected:
  NetFaultTest()
      : arena_(32, 1024),
        table_(std::make_shared<SocketTable>()),
        reader_("reader", table_, pool_),
        writer_("writer", table_),
        closer_("closer", table_) {
    pool_.adopt(arena_);
    fp::clear_all();
    fp::reset_counters();
  }
  ~NetFaultTest() override { fp::clear_all(); }

  // Connected AF_UNIX stream pair: one end registered in the table (the
  // side the system actors operate on), the other kept as the raw peer.
  SocketId make_pair(Socket& peer) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(
        ::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
    peer = Socket(fds[1]);
    return table_->add(Socket(fds[0]));
  }

  concurrent::Node* node() {
    concurrent::Node* n = pool_.get();
    EXPECT_NE(n, nullptr);
    return n;
  }

  void subscribe_reader(SocketId id, concurrent::Mbox& data) {
    ReadSubscribe sub;
    sub.socket = id;
    sub.data = &data;
    concurrent::Node* n = node();
    write_struct(*n, sub);
    reader_.requests().push(n);
  }

  // Drains everything currently readable on `peer` into a string.
  std::string drain_peer(Socket& peer) {
    std::string out;
    util::Bytes buf(2048, 0);
    long n;
    while ((n = peer.read_nb(buf)) > 0) {
      out.append(reinterpret_cast<char*>(buf.data()),
                 static_cast<std::size_t>(n));
    }
    return out;
  }

  void expect_pool_full() { EXPECT_EQ(pool_.size(), arena_.count()); }

  concurrent::NodeArena arena_;
  concurrent::Pool pool_;
  std::shared_ptr<SocketTable> table_;
  ReaderActor reader_;
  WriterActor writer_;
  CloserActor closer_;
};

TEST_F(NetFaultTest, WriterDeliversEverythingDespiteShortWrites) {
  Socket peer;
  SocketId id = make_pair(peer);

  std::string expected;
  for (int i = 0; i < 3; ++i) {
    std::string chunk(100, static_cast<char>('a' + i));
    expected += chunk;
    concurrent::Node* n = node();
    n->fill(chunk);
    n->tag = static_cast<std::uint64_t>(id);
    writer_.input().push(n);
  }

  // Every send is capped at 7 bytes: the writer must advance its offset by
  // the short count and keep going, delivering the exact byte stream.
  ASSERT_TRUE(fp::set("net.socket.write", "return(7)"));
  std::string received;
  for (int round = 0; round < 200 && received.size() < expected.size();
       ++round) {
    writer_.body();
    received += drain_peer(peer);
  }
  EXPECT_EQ(received, expected);
  EXPECT_GE(fp::hits("net.socket.write"), expected.size() / 7);
  expect_pool_full();
}

TEST_F(NetFaultTest, WriterHoldsPendingAcrossEagainStormWithoutLoss) {
  Socket peer;
  SocketId id = make_pair(peer);

  concurrent::Node* n = node();
  n->fill("survives the storm");
  n->tag = static_cast<std::uint64_t>(id);
  writer_.input().push(n);

  // A storm of EAGAINs: nothing may reach the wire, but the node must stay
  // parked in the writer (not leaked back to the pool, not dropped).
  ASSERT_TRUE(fp::set("net.socket.write", "return(0)"));
  for (int i = 0; i < 10; ++i) writer_.body();
  EXPECT_TRUE(drain_peer(peer).empty());
  EXPECT_EQ(pool_.size(), arena_.count() - 1);  // exactly the parked node

  fp::clear("net.socket.write");
  writer_.body();
  EXPECT_EQ(drain_peer(peer), "survives the storm");
  expect_pool_full();
}

TEST_F(NetFaultTest, WriterMidFrameResetReleasesAllPendingNodes) {
  // Big nodes + a tiny kernel send buffer so the first body() parks a node
  // mid-write (offset > 0) with more queued behind it.
  concurrent::NodeArena big_arena(4, 64 * 1024);
  concurrent::Pool big_pool;
  big_pool.adopt(big_arena);

  Socket peer;
  SocketId id = make_pair(peer);
  table_->with(id, [](Socket& s) {
    int small = 4608;
    ::setsockopt(s.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  });

  for (int i = 0; i < 4; ++i) {
    concurrent::Node* n = big_pool.get();
    ASSERT_NE(n, nullptr);
    std::string chunk(60 * 1024, static_cast<char>('A' + i));
    n->fill(chunk);
    n->tag = static_cast<std::uint64_t>(id);
    writer_.input().push(n);
  }
  writer_.body();  // fills the kernel buffer, then EAGAIN parks the rest
  EXPECT_FALSE(drain_peer(peer).empty());
  EXPECT_LT(big_pool.size(), big_arena.count()) << "expected parked nodes";

  // The peer resets the connection mid-stream: the writer must drop the
  // whole per-socket queue and release every node exactly once.
  ASSERT_TRUE(fp::set("net.socket.write", "return(-1)"));
  writer_.body();
  EXPECT_EQ(big_pool.size(), big_arena.count());

  // The dropped socket is gone from the writer's state: later rounds are
  // clean no-ops.
  fp::clear("net.socket.write");
  writer_.body();
  EXPECT_EQ(big_pool.size(), big_arena.count());
  expect_pool_full();
}

TEST_F(NetFaultTest, CloserTearsDownExactlyOnce) {
  Socket peer;
  SocketId id = make_pair(peer);
  ASSERT_NE(table_->fd(id), -1);

  // Three close requests for the same id plus one for a stale id: the
  // socket is closed exactly once and the duplicates are harmless.
  for (int i = 0; i < 3; ++i) {
    concurrent::Node* n = node();
    n->tag = static_cast<std::uint64_t>(id);
    closer_.input().push(n);
  }
  concurrent::Node* stale = node();
  stale->tag = static_cast<std::uint64_t>(id) + 9999;
  closer_.input().push(stale);

  closer_.body();
  EXPECT_EQ(closer_.closes(), 1u);
  EXPECT_EQ(table_->fd(id), -1);
  closer_.body();
  EXPECT_EQ(closer_.closes(), 1u);
  expect_pool_full();
}

TEST_F(NetFaultTest, ReaderShortReadsPreserveStreamContentAndOrder) {
  Socket peer;
  SocketId id = make_pair(peer);
  concurrent::Mbox data;
  subscribe_reader(id, data);
  reader_.body();  // consume the subscription

  std::string expected;
  for (int i = 0; i < 8; ++i) expected += "chunk" + std::to_string(i) + "|";
  ASSERT_EQ(peer.write_nb(util::to_bytes(expected)),
            static_cast<long>(expected.size()));

  // Every recv is capped at 7 bytes: the reader needs many more nodes, but
  // the reassembled stream must be byte-identical and in order.
  ASSERT_TRUE(fp::set("net.socket.read", "return(7)"));
  std::string received;
  for (int round = 0; round < 200 && received.size() < expected.size();
       ++round) {
    reader_.body();
    concurrent::Node* n;
    while ((n = data.pop()) != nullptr) {
      concurrent::NodeLease lease(n);
      EXPECT_LE(n->size, 7u);
      EXPECT_EQ(static_cast<SocketId>(n->tag), id);
      received += std::string(n->view());
    }
  }
  EXPECT_EQ(received, expected);
  expect_pool_full();
}

TEST_F(NetFaultTest, ReaderEagainStormLeaksNothingThenRecovers) {
  Socket peer;
  SocketId id = make_pair(peer);
  concurrent::Mbox data;
  subscribe_reader(id, data);
  reader_.body();

  ASSERT_EQ(peer.write_nb(util::to_bytes("delayed data")), 12);
  // The socket pretends to be dry: each round the reader draws a node,
  // sees the stall, and must return the node — a storm leaks nothing.
  ASSERT_TRUE(fp::set("net.socket.read", "return(0)"));
  for (int i = 0; i < 50; ++i) reader_.body();
  EXPECT_TRUE(data.empty());
  expect_pool_full();

  fp::clear("net.socket.read");
  reader_.body();
  concurrent::NodeLease lease(data.pop());
  ASSERT_TRUE(lease);
  EXPECT_EQ(lease->view(), "delayed data");
  lease.reset();
  expect_pool_full();
}

TEST_F(NetFaultTest, ReaderInjectedResetDeliversOneEofAndDropsSubscription) {
  Socket peer;
  SocketId id = make_pair(peer);
  concurrent::Mbox data;
  subscribe_reader(id, data);
  reader_.body();

  // A reset mid-connection: exactly one zero-size close-signal node is
  // delivered and the subscription is dropped — further rounds must not
  // read the (still valid) socket or emit more EOF nodes. The READER only
  // reads a socket its epoll set reports, so the peer makes it readable
  // first; the injected reset then hits that read.
  ASSERT_EQ(peer.write_nb(util::to_bytes("x")), 1);
  ASSERT_TRUE(fp::set("net.socket.read", "once(-1)"));
  reader_.body();
  {
    concurrent::NodeLease lease(data.pop());
    ASSERT_TRUE(lease);
    EXPECT_EQ(lease->size, 0u);
    EXPECT_EQ(static_cast<SocketId>(lease->tag), id);
  }
  ASSERT_EQ(peer.write_nb(util::to_bytes("after reset")), 11);
  for (int i = 0; i < 10; ++i) reader_.body();
  EXPECT_TRUE(data.empty());
  expect_pool_full();
}

TEST_F(NetFaultTest, ReaderBacksOffOnPoolExhaustionWithoutDroppingData) {
  Socket peer;
  SocketId id = make_pair(peer);
  concurrent::Mbox data;
  subscribe_reader(id, data);
  reader_.body();

  ASSERT_EQ(peer.write_nb(util::to_bytes("backpressure")), 12);
  // Simulated pool exhaustion: the reader must skip the round — no data
  // node, but also no dropped subscription and no lost kernel bytes.
  ASSERT_TRUE(fp::set("net.reader.pool_empty", "return"));
  for (int i = 0; i < 20; ++i) reader_.body();
  EXPECT_TRUE(data.empty());
  expect_pool_full();

  fp::clear("net.reader.pool_empty");
  reader_.body();
  concurrent::NodeLease lease(data.pop());
  ASSERT_TRUE(lease);
  EXPECT_EQ(lease->view(), "backpressure");
}

TEST_F(NetFaultTest, IdleSubscriptionsCostNoReads) {
  // The READER reads only the sockets its epoll set reports: 64 idle
  // subscriptions cost no read over 100 rounds, and data on one socket
  // costs reads on that socket alone.
  constexpr int kSockets = 64;
  std::vector<Socket> peers(kSockets);
  std::vector<SocketId> ids;
  concurrent::Mbox data;
  for (Socket& peer : peers) {
    ids.push_back(make_pair(peer));
    subscribe_reader(ids.back(), data);
    reader_.body();  // one subscription node at a time: the pool is small
  }
  fp::reset_counters();
  for (int i = 0; i < 100; ++i) reader_.body();
  EXPECT_EQ(fp::evals("net.socket.read"), 0u);
  EXPECT_TRUE(data.empty());

  // One socket gets data: one read returns it (a short read, so the READER
  // needs no EAGAIN read to learn the socket is dry), and no socket is
  // read in any later round.
  ASSERT_EQ(peers[kSockets / 2].write_nb(util::to_bytes("wake")), 4);
  for (int i = 0; i < 100; ++i) reader_.body();
  EXPECT_EQ(fp::evals("net.socket.read"), 1u);
  {
    concurrent::NodeLease lease(data.pop());
    ASSERT_TRUE(lease);
    EXPECT_EQ(lease->view(), "wake");
    EXPECT_EQ(static_cast<SocketId>(lease->tag), ids[kSockets / 2]);
  }
  EXPECT_TRUE(data.empty());
  expect_pool_full();
}

TEST_F(NetFaultTest, AcceptFailureIsTransient) {
  Socket listener = Socket::listen_on(0);
  ASSERT_TRUE(listener.valid());
  Socket client = Socket::connect_to("127.0.0.1", listener.local_port());
  ASSERT_TRUE(client.valid());

  // Simulated EMFILE / aborted handshake: accept_nb reports nothing even
  // though a connection is pending; once the fault clears the connection
  // is still there to accept.
  ASSERT_TRUE(fp::set("net.socket.accept", "return"));
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(listener.accept_nb().has_value());
    std::this_thread::sleep_for(1ms);
  }
  fp::clear("net.socket.accept");

  std::optional<Socket> server;
  auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!server.has_value() && std::chrono::steady_clock::now() < deadline) {
    server = listener.accept_nb();
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(server.has_value());
}

TEST_F(NetFaultTest, ConnectFailureYieldsInvalidSocketOnce) {
  Socket listener = Socket::listen_on(0);
  ASSERT_TRUE(listener.valid());

  ASSERT_TRUE(fp::set("net.socket.connect", "once"));
  Socket failed = Socket::connect_to("127.0.0.1", listener.local_port());
  EXPECT_FALSE(failed.valid());

  Socket ok = Socket::connect_to("127.0.0.1", listener.local_port());
  EXPECT_TRUE(ok.valid());
}

}  // namespace
}  // namespace ea::net

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "concurrent/arena.hpp"
#include "concurrent/pool.hpp"
#include "net/actors.hpp"
#include "net/socket.hpp"
#include "core/runtime.hpp"
#include "net/socket_table.hpp"
#include "util/bytes.hpp"

namespace ea::net {
namespace {

using namespace std::chrono_literals;

// Drives a set of actors until `pred` holds or the deadline passes. The
// system actors are ordinary objects; invoking body() directly makes tests
// deterministic without worker threads.
template <typename Pred>
bool drive(std::initializer_list<core::Actor*> actors, Pred pred,
           std::chrono::milliseconds limit = 5s) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    for (core::Actor* actor : actors) actor->body();
    std::this_thread::sleep_for(100us);
  }
  return pred();
}

TEST(Socket, ListenConnectRoundTrip) {
  Socket listener = Socket::listen_on(0);
  ASSERT_TRUE(listener.valid());
  std::uint16_t port = listener.local_port();
  ASSERT_NE(port, 0);

  Socket client = Socket::connect_to("127.0.0.1", port);
  ASSERT_TRUE(client.valid());

  std::optional<Socket> server;
  auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!server.has_value() && std::chrono::steady_clock::now() < deadline) {
    server = listener.accept_nb();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(server.has_value());

  util::Bytes out = util::to_bytes("over the wire");
  long wrote = client.write_nb(out);
  // Non-blocking connect may still be settling; retry briefly.
  while (wrote == 0) {
    std::this_thread::sleep_for(1ms);
    wrote = client.write_nb(out);
  }
  ASSERT_EQ(static_cast<std::size_t>(wrote), out.size());

  util::Bytes in(64, 0);
  long got = 0;
  deadline = std::chrono::steady_clock::now() + 2s;
  while (got <= 0 && std::chrono::steady_clock::now() < deadline) {
    got = server->read_nb(in);
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_GT(got, 0);
  EXPECT_EQ(util::to_string(std::span<const std::uint8_t>(
                in.data(), static_cast<std::size_t>(got))),
            "over the wire");
}

TEST(Socket, ReadOnClosedPeerReturnsEof) {
  Socket listener = Socket::listen_on(0);
  Socket client = Socket::connect_to("127.0.0.1", listener.local_port());
  std::optional<Socket> server;
  auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!server.has_value() && std::chrono::steady_clock::now() < deadline) {
    server = listener.accept_nb();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(server.has_value());
  client.close();
  util::Bytes buf(16, 0);
  long n = 0;
  deadline = std::chrono::steady_clock::now() + 2s;
  while (n == 0 && std::chrono::steady_clock::now() < deadline) {
    n = server->read_nb(buf);
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(n, -1);
}

TEST(SocketTableTest, AddLookupClose) {
  SocketTable table;
  Socket listener = Socket::listen_on(0);
  int fd = listener.fd();
  SocketId id = table.add(std::move(listener));
  EXPECT_EQ(table.fd(id), fd);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_TRUE(table.close(id));
  EXPECT_EQ(table.fd(id), -1);
  EXPECT_FALSE(table.close(id));
}

class NetActorsTest : public ::testing::Test {
 protected:
  NetActorsTest()
      : arena_(256, 1024),
        table_(std::make_shared<SocketTable>()),
        opener_("opener", table_, pool_),
        accepter_("accepter", table_, pool_),
        reader_("reader", table_, pool_),
        writer_("writer", table_),
        closer_("closer", table_) {
    pool_.adopt(arena_);
  }

  concurrent::Node* node() {
    concurrent::Node* n = pool_.get();
    EXPECT_NE(n, nullptr);
    return n;
  }

  concurrent::NodeArena arena_;
  concurrent::Pool pool_;
  std::shared_ptr<SocketTable> table_;
  OpenerActor opener_;
  AccepterActor accepter_;
  ReaderActor reader_;
  WriterActor writer_;
  CloserActor closer_;
};

TEST_F(NetActorsTest, OpenerCreatesListener) {
  concurrent::Mbox reply;
  OpenRequest req;
  req.kind = OpenRequest::kListen;
  req.cookie = 77;
  req.reply = &reply;
  concurrent::Node* n = node();
  write_struct(*n, req);
  opener_.requests().push(n);

  ASSERT_TRUE(drive({&opener_}, [&] { return !reply.empty(); }));
  concurrent::NodeLease lease(reply.pop());
  OpenReply out;
  ASSERT_TRUE(read_struct(*lease.get(), out));
  EXPECT_GE(out.id, 0);
  EXPECT_EQ(out.cookie, 77u);
  EXPECT_NE(out.port, 0);
}

TEST_F(NetActorsTest, OpenerReportsConnectFailureGracefully) {
  // Connecting to an unroutable port may still "succeed" asynchronously at
  // the socket layer; instead test a malformed host, which fails fast.
  concurrent::Mbox reply;
  OpenRequest req;
  req.kind = OpenRequest::kConnect;
  req.port = 1;
  std::snprintf(req.host, sizeof(req.host), "not-an-ip");
  req.reply = &reply;
  concurrent::Node* n = node();
  write_struct(*n, req);
  opener_.requests().push(n);

  ASSERT_TRUE(drive({&opener_}, [&] { return !reply.empty(); }));
  concurrent::NodeLease lease(reply.pop());
  OpenReply out;
  ASSERT_TRUE(read_struct(*lease.get(), out));
  EXPECT_LT(out.id, 0);
}

TEST_F(NetActorsTest, FullPipelineEcho) {
  // OPENER(listen) -> ACCEPTER -> READER -> WRITER -> CLOSER, exercised as
  // a real loopback echo.
  concurrent::Mbox open_reply;
  {
    OpenRequest req;
    req.kind = OpenRequest::kListen;
    req.reply = &open_reply;
    concurrent::Node* n = node();
    write_struct(*n, req);
    opener_.requests().push(n);
  }
  ASSERT_TRUE(drive({&opener_}, [&] { return !open_reply.empty(); }));
  OpenReply listen_reply;
  {
    concurrent::NodeLease lease(open_reply.pop());
    ASSERT_TRUE(read_struct(*lease.get(), listen_reply));
  }
  ASSERT_GE(listen_reply.id, 0);

  // Subscribe the accepter.
  concurrent::Mbox accepted;
  {
    AcceptSubscribe sub;
    sub.listener = listen_reply.id;
    sub.reply = &accepted;
    concurrent::Node* n = node();
    write_struct(*n, sub);
    accepter_.requests().push(n);
  }

  // A plain client connects from a helper thread.
  Socket client = Socket::connect_to("127.0.0.1", listen_reply.port);
  ASSERT_TRUE(client.valid());

  ASSERT_TRUE(drive({&accepter_}, [&] { return !accepted.empty(); }));
  SocketId conn_id;
  {
    concurrent::NodeLease lease(accepted.pop());
    conn_id = static_cast<SocketId>(lease->tag);
  }

  // Subscribe the new connection to the reader.
  concurrent::Mbox data;
  {
    ReadSubscribe sub;
    sub.socket = conn_id;
    sub.data = &data;
    concurrent::Node* n = node();
    write_struct(*n, sub);
    reader_.requests().push(n);
  }

  // Client sends; reader should deliver.
  util::Bytes payload = util::to_bytes("echo me");
  while (client.write_nb(payload) == 0) std::this_thread::sleep_for(1ms);
  ASSERT_TRUE(drive({&reader_}, [&] { return !data.empty(); }));
  {
    concurrent::NodeLease lease(data.pop());
    EXPECT_EQ(lease->view(), "echo me");
    EXPECT_EQ(static_cast<SocketId>(lease->tag), conn_id);
    // Echo it back through the writer.
    concurrent::Node* out = node();
    out->fill(lease->view());
    out->tag = lease->tag;
    writer_.input().push(out);
  }
  util::Bytes rx(64, 0);
  long got = 0;
  ASSERT_TRUE(drive({&writer_}, [&] {
    long n = client.read_nb(rx);
    if (n > 0) got = n;
    return got > 0;
  }));
  EXPECT_EQ(util::to_string(std::span<const std::uint8_t>(
                rx.data(), static_cast<std::size_t>(got))),
            "echo me");

  // Close via the closer; the reader must then deliver an EOF node.
  {
    concurrent::Node* n = node();
    n->tag = static_cast<std::uint64_t>(conn_id);
    closer_.input().push(n);
  }
  ASSERT_TRUE(drive({&closer_, &reader_}, [&] { return !data.empty(); }));
  {
    concurrent::NodeLease lease(data.pop());
    EXPECT_EQ(lease->size, 0u);
  }
  EXPECT_EQ(table_->fd(conn_id), -1);
}

TEST_F(NetActorsTest, ReaderDeliversEofOnPeerClose) {
  Socket listener = Socket::listen_on(0);
  Socket client = Socket::connect_to("127.0.0.1", listener.local_port());
  std::optional<Socket> server;
  auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!server.has_value() && std::chrono::steady_clock::now() < deadline) {
    server = listener.accept_nb();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(server.has_value());
  SocketId id = table_->add(std::move(*server));

  concurrent::Mbox data;
  {
    ReadSubscribe sub;
    sub.socket = id;
    sub.data = &data;
    concurrent::Node* n = node();
    write_struct(*n, sub);
    reader_.requests().push(n);
  }
  client.close();
  ASSERT_TRUE(drive({&reader_}, [&] { return !data.empty(); }));
  concurrent::NodeLease lease(data.pop());
  EXPECT_EQ(lease->size, 0u);
  EXPECT_EQ(static_cast<SocketId>(lease->tag), id);
}

TEST_F(NetActorsTest, WriterHandlesLargeMessageInChunks) {
  Socket listener = Socket::listen_on(0);
  Socket client = Socket::connect_to("127.0.0.1", listener.local_port());
  std::optional<Socket> server;
  auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!server.has_value() && std::chrono::steady_clock::now() < deadline) {
    server = listener.accept_nb();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(server.has_value());
  SocketId id = table_->add(std::move(*server));

  // Queue several writes; total larger than a single node.
  std::string expected;
  for (int i = 0; i < 10; ++i) {
    std::string chunk = util::random_printable(static_cast<std::uint64_t>(i), 900);
    expected += chunk;
    concurrent::Node* n = node();
    n->fill(chunk);
    n->tag = static_cast<std::uint64_t>(id);
    writer_.input().push(n);
  }

  std::string received;
  util::Bytes buf(4096, 0);
  ASSERT_TRUE(drive({&writer_}, [&] {
    long n = client.read_nb(buf);
    if (n > 0) {
      received.append(reinterpret_cast<char*>(buf.data()),
                      static_cast<std::size_t>(n));
    }
    return received.size() >= expected.size();
  }));
  EXPECT_EQ(received, expected);
}

}  // namespace
}  // namespace ea::net

namespace ea::net {
namespace {

TEST(InstallNetworking, FullRuntimeEchoThroughSystemActors) {
  // The whole subsystem wired into a runtime with a real worker: an
  // application actor opens a listener via OPENER, accepts via ACCEPTER,
  // echoes via READER/WRITER, closes via CLOSER.
  core::Runtime rt;
  NetSubsystem net = install_networking(rt, "netw");

  concurrent::Mbox open_reply;
  concurrent::Mbox accepted;
  concurrent::Mbox data;
  rt.start();

  // Open a listener.
  {
    concurrent::Node* n = rt.public_pool().get();
    OpenRequest req;
    req.kind = OpenRequest::kListen;
    req.reply = &open_reply;
    write_struct(*n, req);
    net.opener->requests().push(n);
  }
  OpenReply listen_reply;
  {
    auto deadline = std::chrono::steady_clock::now() + 5s;
    concurrent::Node* n = nullptr;
    while (n == nullptr && std::chrono::steady_clock::now() < deadline) {
      n = open_reply.pop();
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_NE(n, nullptr);
    concurrent::NodeLease lease(n);
    ASSERT_TRUE(read_struct(*n, listen_reply));
    ASSERT_GE(listen_reply.id, 0);
  }

  // Subscribe accepts, connect a client via the OPENER's connect path.
  {
    concurrent::Node* n = rt.public_pool().get();
    AcceptSubscribe sub;
    sub.listener = listen_reply.id;
    sub.reply = &accepted;
    write_struct(*n, sub);
    net.accepter->requests().push(n);
  }
  concurrent::Mbox connect_reply;
  {
    concurrent::Node* n = rt.public_pool().get();
    OpenRequest req;
    req.kind = OpenRequest::kConnect;
    req.port = listen_reply.port;
    std::snprintf(req.host, sizeof(req.host), "127.0.0.1");
    req.reply = &connect_reply;
    req.cookie = 5;
    write_struct(*n, req);
    net.opener->requests().push(n);
  }
  OpenReply client_reply;
  SocketId server_conn = -1;
  {
    auto deadline = std::chrono::steady_clock::now() + 5s;
    bool have_client = false, have_server = false;
    while ((!have_client || !have_server) &&
           std::chrono::steady_clock::now() < deadline) {
      if (concurrent::Node* n = connect_reply.pop()) {
        concurrent::NodeLease lease(n);
        ASSERT_TRUE(read_struct(*n, client_reply));
        have_client = true;
      }
      if (concurrent::Node* n = accepted.pop()) {
        concurrent::NodeLease lease(n);
        server_conn = static_cast<SocketId>(n->tag);
        have_server = true;
      }
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_GE(client_reply.id, 0);
    ASSERT_GE(server_conn, 0);
  }

  // Server side reads; client writes through the WRITER.
  {
    concurrent::Node* n = rt.public_pool().get();
    ReadSubscribe sub;
    sub.socket = server_conn;
    sub.data = &data;
    write_struct(*n, sub);
    net.reader->requests().push(n);
  }
  {
    concurrent::Node* n = rt.public_pool().get();
    n->fill("through the subsystem");
    n->tag = static_cast<std::uint64_t>(client_reply.id);
    net.writer->input().push(n);
  }
  {
    auto deadline = std::chrono::steady_clock::now() + 5s;
    concurrent::Node* n = nullptr;
    while (n == nullptr && std::chrono::steady_clock::now() < deadline) {
      n = data.pop();
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_NE(n, nullptr);
    concurrent::NodeLease lease(n);
    EXPECT_EQ(n->view(), "through the subsystem");
  }

  // Close both ends via the CLOSER.
  for (SocketId id : {client_reply.id, server_conn}) {
    concurrent::Node* n = rt.public_pool().get();
    n->tag = static_cast<std::uint64_t>(id);
    net.closer->input().push(n);
  }
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (net.table->fd(server_conn) != -1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(net.table->fd(server_conn), -1);
  rt.stop();
}

TEST_F(NetActorsTest, ScanRotationPreventsHotSocketStarvation) {
  // Regression for the READER's drain rotation: a hot socket that eats the
  // entire node pool every round must not starve another ready socket
  // forever. The pool holds exactly one read burst, the hot socket is kept
  // topped up with more than a burst of buffered data, and the kernel
  // reports ready sockets in a stable order, so the cold socket's delivery
  // depends on the drain NOT restarting at the same report every round.
  concurrent::NodeArena small_arena(kReadBurst, 1024);
  concurrent::Pool small_pool;
  small_pool.adopt(small_arena);

  Socket listener = Socket::listen_on(0);
  ASSERT_TRUE(listener.valid());
  auto accept_one = [&]() -> std::optional<Socket> {
    auto deadline = std::chrono::steady_clock::now() + 2s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (auto s = listener.accept_nb(); s.has_value()) return s;
      std::this_thread::sleep_for(1ms);
    }
    return std::nullopt;
  };

  Socket hot = Socket::connect_to("127.0.0.1", listener.local_port());
  auto hot_srv = accept_one();
  ASSERT_TRUE(hot_srv.has_value());
  SocketId hot_id = table_->add(std::move(*hot_srv));
  Socket cold = Socket::connect_to("127.0.0.1", listener.local_port());
  auto cold_srv = accept_one();
  ASSERT_TRUE(cold_srv.has_value());
  SocketId cold_id = table_->add(std::move(*cold_srv));
  ASSERT_LT(hot_id, cold_id);

  concurrent::Mbox hot_data, cold_data;
  for (auto& [id, mbox] :
       {std::pair<SocketId, concurrent::Mbox*>{hot_id, &hot_data},
        std::pair<SocketId, concurrent::Mbox*>{cold_id, &cold_data}}) {
    concurrent::Node* n = node();
    ReadSubscribe sub;
    sub.socket = id;
    sub.data = mbox;
    sub.pool = &small_pool;
    write_struct(*n, sub);
    reader_.requests().push(n);
  }

  std::vector<std::uint8_t> blob(16 * 1024, 'h');
  (void)hot.write_nb(blob);
  util::Bytes cold_msg = util::to_bytes("the cold socket gets a turn");
  ASSERT_GT(cold.write_nb(cold_msg), 0);

  // Keep the hot socket's kernel buffer above one burst and recycle its
  // nodes immediately, so every round the hot socket *could* consume the
  // whole pool again. Only the rotation lets the cold socket through.
  ASSERT_TRUE(drive({&reader_}, [&] {
    (void)hot.write_nb(std::span<const std::uint8_t>(blob).first(8 * 1024));
    while (concurrent::Node* n = hot_data.pop()) {
      concurrent::NodeLease(n).reset();
    }
    return !cold_data.empty();
  }));
  concurrent::NodeLease lease(cold_data.pop());
  EXPECT_EQ(lease->tag, static_cast<std::uint64_t>(cold_id));
  EXPECT_GT(lease->size, 0u);
}

TEST_F(NetActorsTest, LocallyClosedSubscriptionGetsOneEof) {
  // A socket closed on this side (the CLOSER) leaves the READER's epoll set
  // without an event; the subscriber must still get exactly one EOF node,
  // and the READER must drop the subscription.
  Socket listener = Socket::listen_on(0);
  Socket client = Socket::connect_to("127.0.0.1", listener.local_port());
  std::optional<Socket> server;
  auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!server.has_value() && std::chrono::steady_clock::now() < deadline) {
    server = listener.accept_nb();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(server.has_value());
  SocketId id = table_->add(std::move(*server));

  concurrent::Mbox data;
  {
    ReadSubscribe sub;
    sub.socket = id;
    sub.data = &data;
    concurrent::Node* n = node();
    write_struct(*n, sub);
    reader_.requests().push(n);
  }
  reader_.body();
  {
    concurrent::Node* n = node();
    n->tag = static_cast<std::uint64_t>(id);
    closer_.input().push(n);
  }
  closer_.body();
  ASSERT_EQ(closer_.closes(), 1u);

  int eofs = 0;
  for (int round = 0; round < 10'000; ++round) {
    reader_.body();
    while (concurrent::Node* n = data.pop()) {
      concurrent::NodeLease lease(n);
      EXPECT_EQ(n->size, 0u);
      EXPECT_EQ(static_cast<SocketId>(n->tag), id);
      ++eofs;
    }
  }
  EXPECT_EQ(eofs, 1);
  EXPECT_EQ(pool_.size(), pool_.capacity());
}

TEST_F(NetActorsTest, OpenerConnectSucceedsToRealListener) {
  Socket listener = Socket::listen_on(0);
  ASSERT_TRUE(listener.valid());
  concurrent::Mbox reply;
  OpenRequest req;
  req.kind = OpenRequest::kConnect;
  req.port = listener.local_port();
  std::snprintf(req.host, sizeof(req.host), "127.0.0.1");
  req.reply = &reply;
  concurrent::Node* n = node();
  write_struct(*n, req);
  opener_.requests().push(n);
  ASSERT_TRUE(drive({&opener_}, [&] { return !reply.empty(); }));
  concurrent::NodeLease lease(reply.pop());
  OpenReply out;
  ASSERT_TRUE(read_struct(*lease.get(), out));
  EXPECT_GE(out.id, 0);
}

}  // namespace
}  // namespace ea::net

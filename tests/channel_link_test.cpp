// Channels carried over TCP (ctest label: net).
//
// net::ChannelLink moves a core::Channel's sealed frames over a loopback
// connection as [u32 len][frame] (net/channel_link.hpp). These tests drive
// the link and the net actors by hand (no worker threads):
//
//   * the link rebuilds a frame split at every byte boundary across READER
//     chunks, and two frames that share one chunk;
//   * a length of 0 or above the node capacity closes the inbound socket
//     and delivers nothing;
//   * quarantine returns every node the link holds;
//   * a frame written again on a new connection arrives even when the
//     READER could read it before the reconnector's Up note reached the
//     link: the link subscribes the dialled socket only on that note;
//   * a hop reset mid-round: the link writes its last frame again on the
//     new connection, the round completes once with the right sum, and a
//     copy that had already arrived is dropped by the replay guard and
//     counted in the channel's auth_failures.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/channel.hpp"
#include "core/health.hpp"
#include "core/runtime.hpp"
#include "net/actors.hpp"
#include "net/channel_link.hpp"
#include "net/reconnector.hpp"
#include "net/socket.hpp"
#include "net/socket_table.hpp"
#include "sgxsim/cost_model.hpp"
#include "smc/party_actor.hpp"
#include "util/bytes.hpp"

namespace ea {
namespace {

using namespace std::chrono_literals;

class ChannelLinkTest : public ::testing::Test {
 protected:
  ChannelLinkTest() {
    sgxsim::cost_model().ecall_cycles = 10;
    sgxsim::cost_model().ocall_cycles = 10;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
  }
  sgxsim::ScopedCostModel scoped_;
};

// [u32 len][payload]: one frame as it travels on the wire.
util::Bytes wire_frame(std::string_view payload) {
  util::Bytes out(4 + payload.size());
  util::store_le32(out.data(), static_cast<std::uint32_t>(payload.size()));
  std::memcpy(out.data() + 4, payload.data(), payload.size());
  return out;
}

// A plain channel between two harness-connected ends, carried by a link
// the test owns. The dialled socket is a made-up id the test feeds chunks
// for, as the READER would.
struct LinkRig {
  static constexpr net::SocketId kDialled = 7;
  static constexpr std::uint64_t kConn = 42;

  core::Runtime rt;
  net::NetSubsystem net;
  core::Channel& channel;
  core::ChannelEnd* a;  // side 0: receives what the dialled socket reads
  core::ChannelEnd* b;  // side 1: receives what the accepted socket reads
  concurrent::Mbox control;  // stands in for the reconnector's
  net::ChannelLink link;
  concurrent::Mbox* dialled = nullptr;  // where the READER would deliver
  std::size_t baseline = 0;

  LinkRig()
      : net(net::install_networking(rt, "net.sys")),
        channel(rt.channel("carried")),
        a(channel.connect(sgxsim::kUntrusted)),
        b(channel.connect(sgxsim::kUntrusted)),
        link("link", channel, net, rt.public_pool()) {
    baseline = free_nodes();
    link.set_connection(kConn, &control);
    net::ConnStatus up;
    up.conn_id = kConn;
    up.socket = kDialled;
    up.up = 1;
    concurrent::Node* note = rt.public_pool().get();
    net::write_struct(*note, up);
    link.status().push(note);
    link.body();
    // The Up note came back as the dialled socket's READER subscription;
    // the test takes it and plays the READER.
    concurrent::NodeLease request(net.reader->requests().pop());
    net::ReadSubscribe sub;
    EXPECT_TRUE(request && net::read_struct(*request.get(), sub));
    EXPECT_EQ(sub.socket, kDialled);
    dialled = sub.data;
  }

  std::size_t free_nodes() const { return rt.health().pool.free; }

  void chunk(std::span<const std::uint8_t> bytes,
             net::SocketId socket = kDialled) {
    ASSERT_NE(dialled, nullptr) << "the link did not subscribe the socket";
    concurrent::Node* node = rt.public_pool().get();
    ASSERT_NE(node, nullptr);
    node->fill(bytes);
    node->tag = static_cast<std::uint64_t>(socket);
    dialled->push(node);
  }
};

std::optional<std::string> recv_string(core::ChannelEnd& end) {
  concurrent::NodeLease lease = end.recv();
  if (!lease) return std::nullopt;
  return std::string(lease->view());
}

TEST_F(ChannelLinkTest, RebuildsFramesSplitAtEveryByteBoundary) {
  LinkRig rig;
  util::Bytes stream = wire_frame("hello");
  const util::Bytes second = wire_frame("abc");
  stream.insert(stream.end(), second.begin(), second.end());
  const std::span<const std::uint8_t> all(stream);

  // Split k puts bytes [0, k) in one READER chunk and the rest in the
  // next; k = stream.size() carries both frames in one chunk.
  for (std::size_t k = 1; k <= stream.size(); ++k) {
    rig.chunk(all.first(k));
    if (k < stream.size()) rig.chunk(all.subspan(k));
    rig.link.body();
    EXPECT_EQ(recv_string(*rig.a), "hello") << "split at " << k;
    EXPECT_EQ(recv_string(*rig.a), "abc") << "split at " << k;
    EXPECT_FALSE(rig.a->pending()) << "split at " << k;
    EXPECT_FALSE(rig.b->pending());
  }
  EXPECT_EQ(rig.free_nodes(), rig.baseline);
}

TEST_F(ChannelLinkTest, BadLengthClosesTheInboundSocketAndDeliversNothing) {
  LinkRig rig;

  // Above the node capacity on the dialled socket: the link hands the
  // socket to the reconnector, which closes it and redials.
  concurrent::Node* probe = rig.rt.public_pool().get();
  const std::uint32_t capacity = probe->capacity;
  rig.rt.public_pool().put(probe);
  std::uint8_t too_long[8] = {};
  util::store_le32(too_long, capacity + 1);
  rig.chunk(too_long);
  rig.link.body();
  EXPECT_EQ(rig.link.socket(0), -1);
  concurrent::Node* down = rig.control.pop();
  ASSERT_NE(down, nullptr) << "the dialled socket was not reported down";
  EXPECT_EQ(down->tag, LinkRig::kConn);
  EXPECT_EQ(down->size, 0u);
  concurrent::NodeLease(down).reset();
  EXPECT_FALSE(rig.a->pending());

  // A length of 0 on the accepted socket: the link closes it itself.
  net::Socket listener = net::Socket::listen_on(0);
  ASSERT_TRUE(listener.valid());
  net::Socket peer = net::Socket::connect_to("127.0.0.1", listener.local_port());
  std::optional<net::Socket> accepted;
  for (int i = 0; i < 1000 && !accepted.has_value(); ++i) {
    accepted = listener.accept_nb();
    if (!accepted.has_value()) std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(accepted.has_value());
  const net::SocketId id = rig.net.table->add(std::move(*accepted));
  concurrent::Node* note = rig.rt.public_pool().get();
  note->tag = static_cast<std::uint64_t>(id);
  note->size = 0;
  rig.link.accepts().push(note);
  rig.link.body();
  EXPECT_EQ(rig.link.socket(1), id);

  const std::uint8_t zero[4] = {};
  ASSERT_EQ(peer.write_nb(zero), 4);
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (rig.net.table->fd(id) >= 0 &&
         std::chrono::steady_clock::now() < deadline) {
    rig.net.reader->body();
    rig.link.body();
    rig.net.closer->body();
  }
  EXPECT_EQ(rig.net.table->fd(id), -1) << "the accepted socket stayed open";
  EXPECT_EQ(rig.link.socket(1), -1);
  EXPECT_FALSE(rig.b->pending()) << "a zero-length frame was delivered";
  EXPECT_EQ(rig.free_nodes(), rig.baseline);
}

TEST_F(ChannelLinkTest, QuarantineReturnsEveryNodeTheLinkHolds) {
  LinkRig rig;
  // A frame written (the link keeps a copy as its last), which the WRITER
  // drops: the made-up socket is not in the table.
  ASSERT_TRUE(rig.a->send(std::string_view("departed")));
  rig.link.body();
  rig.net.writer->body();
  // A frame delivered and not yet received, and one half rebuilt.
  rig.chunk(wire_frame("arrived"));
  const util::Bytes partial = wire_frame("half-way");
  rig.chunk(std::span<const std::uint8_t>(partial).first(6));
  rig.link.body();
  // Notes and bytes still queued.
  rig.chunk(wire_frame("queued"));
  rig.link.status().push(rig.rt.public_pool().get());
  rig.link.accepts().push(rig.rt.public_pool().get());
  EXPECT_LT(rig.free_nodes(), rig.baseline);

  rig.link.on_quarantine();
  EXPECT_EQ(rig.free_nodes(), rig.baseline) << "the link leaked nodes";
}

TEST_F(ChannelLinkTest, ResentFrameSurvivesALateUpNote) {
  core::Runtime rt;
  net::NetSubsystem net = net::install_networking(rt, "net.sys");
  net::ReconnectorActor& recon = net::install_reconnector(rt, net);
  core::Channel& channel = rt.channel("carried");
  core::ChannelEnd* a = channel.connect(sgxsim::kUntrusted);
  core::ChannelEnd* b = channel.connect(sgxsim::kUntrusted);
  net::carry_channels(rt, {&channel}, net, recon);
  for (const auto& actor : rt.actors()) actor->construct(rt);
  auto* link =
      dynamic_cast<net::ChannelLink*>(rt.find_actor("net.link.carried"));
  ASSERT_NE(link, nullptr);
  bool hold_link = false;
  auto pump = [&] {
    for (const auto& actor : rt.actors()) {
      if (hold_link && actor.get() == link) continue;
      core::invoke_contained(*actor);
    }
  };
  auto pump_until = [&](auto done, const char* what) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (!done() && std::chrono::steady_clock::now() < deadline) pump();
    ASSERT_TRUE(done()) << what;
  };

  pump_until([&] { return link->socket(0) >= 0 && link->socket(1) >= 0; },
             "the link never connected");
  ASSERT_TRUE(b->send(std::string_view("first")));
  pump_until([&] { return a->pending(); }, "the first frame never arrived");
  EXPECT_EQ(recv_string(*a), "first");

  // The dialled socket dies as side 1's next frame departs: the link
  // writes it into the dying connection, where it is lost, or keeps it
  // for the next one.
  net.table->close(link->socket(0));
  ASSERT_TRUE(b->send(std::string_view("second")));
  pump_until([&] { return link->socket(0) < 0; },
             "the link never saw the reset");

  // The reconnector re-dials and the ACCEPTER delivers the new accepted
  // socket, but the Up note is held back from the link.
  hold_link = true;
  pump_until([&] { return recon.opens() == 2 && !link->accepts().empty(); },
             "the connection was never renewed");
  concurrent::Node* up = link->status().pop();
  ASSERT_NE(up, nullptr);

  // The link writes "second" again on the new accepted socket, and the
  // bytes wait at the new dialled socket while the READER runs.
  link->body();
  ASSERT_GE(link->socket(1), 0);
  for (int i = 0; i < 100; ++i) pump();
  link->body();

  // Whatever the READER read meanwhile must still reach side 0. Before
  // "second", the link may write "first" again: a plain channel has no
  // replay guard to drop that copy.
  link->status().push(up);
  hold_link = false;
  std::vector<std::string> got;
  pump_until(
      [&] {
        while (std::optional<std::string> frame = recv_string(*a)) {
          got.push_back(*frame);
        }
        return !got.empty() && got.back() == "second";
      },
      "the resent frame was lost");
  for (std::size_t i = 0; i + 1 < got.size(); ++i) EXPECT_EQ(got[i], "first");
  EXPECT_FALSE(b->pending());
}

TEST_F(ChannelLinkTest, ResetMidRoundWritesTheLastFrameAgain) {
  core::RuntimeOptions options;
  options.pool_nodes = 1024;
  core::Runtime rt(options);
  net::NetSubsystem net = net::install_networking(rt, "net.sys");
  net::ReconnectorActor& recon = net::install_reconnector(rt, net);
  smc::SmcConfig config;
  config.parties = 3;
  config.dim = 8;
  smc::SmcDeployment dep = smc::install_net_ring(rt, config, net, recon);
  for (const auto& actor : rt.actors()) {
    core::run_in_placement(*actor, [&] { actor->construct(rt); });
  }
  core::Actor* p0 = rt.find_actor("smc.net.p0");
  core::Actor* p1 = rt.find_actor("smc.net.p1");
  auto* link =
      dynamic_cast<net::ChannelLink*>(rt.find_actor("net.link.smc.ring.0"));
  ASSERT_NE(link, nullptr);
  core::Channel& hop = *rt.channels().at("smc.ring.0");
  core::Actor* held = nullptr;
  auto pump = [&] {
    for (const auto& actor : rt.actors()) {
      if (actor.get() == held) continue;
      core::run_in_placement(*actor, [&] { core::invoke_contained(*actor); });
    }
  };
  auto pump_until = [&](auto done, const char* what) {
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (!done() && std::chrono::steady_clock::now() < deadline) pump();
    ASSERT_TRUE(done()) << what;
  };
  smc::Vec expected(config.dim, 0);
  for (int i = 0; i < config.parties; ++i) {
    smc::add_in_place(expected, smc::initial_secret(i, config.dim));
  }
  auto request = [&] {
    concurrent::Node* req = rt.public_pool().get();
    ASSERT_NE(req, nullptr);
    req->size = 0;
    dep.requests->push(req);
  };
  auto await_sum = [&](const char* what) {
    pump_until([&] { return !dep.results->empty(); }, what);
    concurrent::NodeLease result(dep.results->pop());
    EXPECT_EQ(smc::deserialize(result->data()), expected) << what;
    for (int i = 0; i < 200; ++i) pump();
    EXPECT_TRUE(dep.results->empty()) << what << ": two results";
  };

  request();
  await_sum("first round");

  // Lost: the token is written into the dialled socket, and the accepted
  // end is closed before the READER reads it. The copy written on the new
  // connection is the only one that arrives.
  request();
  core::run_in_placement(*p0, [&] { core::invoke_contained(*p0); });
  ASSERT_EQ(hop.departures(0).size(), 1u) << "party 0 did not send";
  link->body();
  net.writer->body();
  ASSERT_TRUE(hop.departures(0).empty());
  net.table->close(link->socket(1));
  await_sum("round whose token was lost");
  EXPECT_EQ(hop.auth_failures(), 0u);

  // Arrived: the token reaches party 1 before the reset, so the copy is
  // a duplicate, which party 1's replay guard drops.
  held = p1;
  request();
  pump_until([&] { return link->arrivals(0).size() == 1; },
             "the token never reached party 1");
  net.table->close(link->socket(1));
  pump_until([&] { return link->arrivals(0).size() == 2; },
             "the link never wrote the token again");
  held = nullptr;
  await_sum("round whose token had arrived");
  std::uint64_t dropped = 0;
  for (const core::ChannelHealth& ch : rt.health().channels) {
    if (ch.name == "smc.ring.0") dropped = ch.auth_failures;
  }
  EXPECT_EQ(dropped, 1u) << "the duplicate was not dropped exactly once";
}

}  // namespace
}  // namespace ea

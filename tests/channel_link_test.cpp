// Channels carried over TCP (ctest labels: net, supervise).
//
// net::ChannelLink moves a core::Channel's sealed frames over a loopback
// connection as [u32 len][frame], and dials that connection itself
// (net/channel_link.hpp). These tests drive the link and the net actors by
// hand (no worker threads), which makes the races deterministic:
//
//   * the link rebuilds a frame split at every byte boundary across READER
//     chunks, and two frames that share one chunk;
//   * a length of 0 or above the node capacity closes the inbound socket
//     and delivers nothing; a closed dialled socket is redialled;
//   * quarantine returns every node the link holds;
//   * an open past its deadline is written off and redialled, and the late
//     reply's socket is closed, not taken as a second open;
//   * quarantine with a reply and an accepted socket queued conserves
//     nodes, closes both sockets and writes the open off, so the restart
//     redials once; a restart alone keeps the open in flight;
//   * a frame written again on a new connection arrives even when the
//     link's OpenReply is held back while the READER runs: the link
//     subscribes the dialled socket only when the reply names it;
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
// the test owns. The test plays the OPENER and the READER: it answers the
// link's first open with a made-up dialled socket, and feeds chunks for
// it.
struct LinkRig {
  static constexpr net::SocketId kDialled = 7;
  static constexpr std::uint16_t kPort = 1;

  core::Runtime rt;
  net::NetSubsystem net;
  core::Channel& channel;
  core::ChannelEnd* a;  // side 0: receives what the dialled socket reads
  core::ChannelEnd* b;  // side 1: receives what the accepted socket reads
  net::ChannelLink link;
  concurrent::Mbox* dialled = nullptr;  // where the READER would deliver
  std::size_t baseline = 0;

  LinkRig()
      : net(net::install_networking(rt, "net.sys")),
        channel(rt.channel("carried")),
        a(channel.connect(sgxsim::kUntrusted)),
        b(channel.connect(sgxsim::kUntrusted)),
        link("link", channel, net, rt.public_pool(), kPort) {
    baseline = free_nodes();
    link.body();  // the first open
    concurrent::Node* node = net.opener->requests().pop();
    net::OpenRequest open;
    if (node == nullptr || !net::read_struct(*node, open)) {
      ADD_FAILURE() << "the link did not dial";
      return;
    }
    EXPECT_EQ(open.kind, net::OpenRequest::kConnect);
    EXPECT_EQ(open.port, kPort);
    net::OpenReply reply;
    reply.id = kDialled;
    reply.cookie = open.cookie;
    net::write_struct(*node, reply);
    open.reply->push(node);
    link.body();
    // The reply came back as the dialled socket's READER subscription;
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

// A plain channel carried by carry_channels(): the link dials its real
// listener through the net actors, every body driven by the test.
struct DialRig {
  core::Runtime rt;
  net::NetSubsystem net;
  core::Channel& channel;
  core::ChannelEnd* a;
  core::ChannelEnd* b;
  net::ChannelLink* link = nullptr;

  DialRig()
      : net(net::install_networking(rt, "net.sys")),
        channel(rt.channel("carried")),
        a(channel.connect(sgxsim::kUntrusted)),
        b(channel.connect(sgxsim::kUntrusted)) {
    net::carry_channels(rt, {&channel}, net);
    for (const auto& actor : rt.actors()) actor->construct(rt);
    link = dynamic_cast<net::ChannelLink*>(rt.find_actor("net.link.carried"));
    EXPECT_NE(link, nullptr);
  }

  // One round of every actor but `held`.
  void pump(const core::Actor* held = nullptr) {
    for (const auto& actor : rt.actors()) {
      if (actor.get() != held) core::invoke_contained(*actor);
    }
  }

  template <typename Done>
  bool pump_until(Done done, const core::Actor* held = nullptr) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (!done() && std::chrono::steady_clock::now() < deadline) {
      pump(held);
    }
    return done();
  }

  bool connected() const {
    return link->socket(0) >= 0 && link->socket(1) >= 0;
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

  // A length of 0 on the accepted socket: the link closes it.
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

  // Above the node capacity on the dialled socket: the link closes it and,
  // after the backoff, dials its listener again.
  concurrent::Node* probe = rig.rt.public_pool().get();
  const std::uint32_t capacity = probe->capacity;
  rig.rt.public_pool().put(probe);
  std::uint8_t too_long[8] = {};
  util::store_le32(too_long, capacity + 1);
  rig.chunk(too_long);
  rig.link.body();
  EXPECT_EQ(rig.link.socket(0), -1);
  concurrent::Node* close = rig.net.closer->input().pop();
  ASSERT_NE(close, nullptr) << "the dialled socket was not closed";
  EXPECT_EQ(close->tag, static_cast<std::uint64_t>(LinkRig::kDialled));
  EXPECT_EQ(close->size, 0u);
  concurrent::NodeLease(close).reset();
  EXPECT_FALSE(rig.a->pending());

  std::this_thread::sleep_for(2ms);  // past the first backoff delay
  rig.link.body();
  concurrent::NodeLease redial(rig.net.opener->requests().pop());
  net::OpenRequest open;
  ASSERT_TRUE(redial && net::read_struct(*redial.get(), open))
      << "the link did not redial";
  EXPECT_EQ(open.port, LinkRig::kPort);
  redial.reset();
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
  // A note and bytes still queued; the note names a made-up socket.
  rig.chunk(wire_frame("queued"));
  concurrent::Node* note = rig.rt.public_pool().get();
  note->tag = 99;
  note->size = 0;
  rig.link.accepts().push(note);
  EXPECT_LT(rig.free_nodes(), rig.baseline);

  rig.link.on_quarantine();
  EXPECT_EQ(rig.free_nodes(), rig.baseline) << "the link leaked nodes";
}

TEST_F(ChannelLinkTest, StaleReplyAfterRedialIsNotASecondOpen) {
  DialRig rig;
  net::ChannelLink& link = *rig.link;
  concurrent::Mbox& opens = rig.net.opener->requests();

  // Open #1 goes out and the OPENER does not run until it is past its
  // deadline: the link writes it off and, after the backoff, dials again.
  link.body();
  ASSERT_EQ(opens.size(), 1u);
  std::this_thread::sleep_for(250ms);
  link.body();
  std::this_thread::sleep_for(2ms);
  link.body();
  ASSERT_EQ(opens.size(), 2u) << "the link did not redial";

  // The OPENER answers both, and both connect. The link takes open #2's
  // reply and closes the socket of #1's, which came late.
  rig.net.opener->body();
  EXPECT_EQ(rig.net.table->size(), 3u);  // the listener and two dialled
  link.body();
  const net::SocketId dialled = link.socket(0);
  ASSERT_GE(dialled, 0);
  EXPECT_EQ(rig.net.table->size(), 2u) << "the late reply's socket leaked";

  // The connection works both ways on the socket the link took, and the
  // late reply caused no second open.
  ASSERT_TRUE(rig.pump_until([&] { return rig.connected(); }));
  for (int i = 0; i < 20; ++i) rig.pump();
  ASSERT_TRUE(rig.a->send(std::string_view("to b")));
  ASSERT_TRUE(rig.b->send(std::string_view("to a")));
  std::optional<std::string> at_a, at_b;
  ASSERT_TRUE(rig.pump_until([&] {
    if (!at_a) at_a = recv_string(*rig.a);
    if (!at_b) at_b = recv_string(*rig.b);
    return at_a.has_value() && at_b.has_value();
  }));
  EXPECT_EQ(*at_a, "to a");
  EXPECT_EQ(*at_b, "to b");
  EXPECT_EQ(link.socket(0), dialled) << "the link dialled again";
  EXPECT_TRUE(opens.empty());
  // The listener, the dialled socket and its accepted peer; the peer of
  // the late socket was superseded and closed.
  EXPECT_EQ(rig.net.table->size(), 3u);
}

TEST_F(ChannelLinkTest, QuarantineConservesNodesAndRestartRedials) {
  DialRig rig;
  net::ChannelLink& link = *rig.link;

  // Queued at the link: the reply to its open and the ACCEPTER's note of
  // the peer socket.
  link.body();
  rig.net.opener->body();
  ASSERT_TRUE(rig.pump_until([&] { return !link.accepts().empty(); }, &link));
  EXPECT_EQ(rig.net.table->size(), 3u);  // the listener, dialled, accepted

  const std::size_t before = rig.rt.health().pool.free;
  link.on_quarantine();
  EXPECT_EQ(rig.rt.health().pool.free, before + 2)
      << "quarantine leaked the queued reply or note";
  EXPECT_EQ(rig.net.table->size(), 1u)
      << "quarantine left open the sockets of the reply and note it dropped";

  // Restart: the open whose reply quarantine dropped was written off, so
  // the link dials again, once.
  link.on_restart();
  ASSERT_TRUE(rig.pump_until([&] { return rig.connected(); }));
  const net::SocketId dialled = link.socket(0);
  for (int i = 0; i < 20; ++i) rig.pump();
  EXPECT_EQ(link.socket(0), dialled);
  EXPECT_EQ(rig.net.table->size(), 3u);
  ASSERT_TRUE(rig.a->send(std::string_view("after restart")));
  std::optional<std::string> got;
  ASSERT_TRUE(rig.pump_until([&] {
    if (!got) got = recv_string(*rig.b);
    return got.has_value();
  }));
  EXPECT_EQ(*got, "after restart");
}

TEST_F(ChannelLinkTest, RestartKeepsTheOpenInFlight) {
  DialRig rig;
  net::ChannelLink& link = *rig.link;
  link.body();             // the open in flight
  rig.net.opener->body();  // its reply is queued at the link

  // A contained fault strikes before body() runs, so the queued reply is
  // intact: the restart must not write the open off.
  link.on_restart();
  link.body();
  const net::SocketId dialled = link.socket(0);
  EXPECT_GE(dialled, 0) << "the restart wrote off the open in flight";
  EXPECT_TRUE(rig.net.opener->requests().empty());

  // The peer accepted exactly one connection, and it carries frames.
  ASSERT_TRUE(rig.pump_until([&] { return rig.connected(); }));
  for (int i = 0; i < 20; ++i) rig.pump();
  EXPECT_EQ(link.socket(0), dialled);
  EXPECT_EQ(rig.net.table->size(), 3u);
  ASSERT_TRUE(rig.b->send(std::string_view("kept")));
  std::optional<std::string> got;
  ASSERT_TRUE(rig.pump_until([&] {
    if (!got) got = recv_string(*rig.a);
    return got.has_value();
  }));
  EXPECT_EQ(*got, "kept");
}

TEST_F(ChannelLinkTest, ResentFrameSurvivesALateOpenReply) {
  DialRig rig;
  net::ChannelLink& link = *rig.link;
  net::OpenerActor& opener = *rig.net.opener;
  ASSERT_TRUE(rig.pump_until([&] { return rig.connected(); }))
      << "the link never connected";
  ASSERT_TRUE(rig.b->send(std::string_view("first")));
  ASSERT_TRUE(rig.pump_until([&] { return rig.a->pending(); }))
      << "the first frame never arrived";
  EXPECT_EQ(recv_string(*rig.a), "first");

  // The dialled socket dies as side 1's next frame departs: the link
  // writes it into the dying connection, where it is lost, or keeps it
  // for the next one.
  rig.net.table->close(link.socket(0));
  ASSERT_TRUE(rig.b->send(std::string_view("second")));
  ASSERT_TRUE(rig.pump_until([&] { return link.socket(0) < 0; }, &opener))
      << "the link never saw the reset";

  // The link redials; the test holds back the OPENER's reply.
  ASSERT_TRUE(rig.pump_until([&] { return !opener.requests().empty(); },
                             &opener))
      << "the link never redialled";
  concurrent::Node* request = opener.requests().pop();
  net::OpenRequest open;
  ASSERT_TRUE(net::read_struct(*request, open));
  concurrent::Mbox* link_replies = open.reply;
  concurrent::Mbox held;
  open.reply = &held;
  net::write_struct(*request, open);
  opener.requests().push(request);
  opener.body();
  concurrent::Node* reply = held.pop();
  ASSERT_NE(reply, nullptr);

  // The ACCEPTER delivers the new accepted socket, the link writes
  // "second" again on it, and the bytes wait at the new dialled socket
  // while the READER runs.
  ASSERT_TRUE(rig.pump_until([&] { return link.socket(1) >= 0; }))
      << "the new connection was never accepted";
  for (int i = 0; i < 20; ++i) rig.pump();
  EXPECT_LT(link.socket(0), 0);

  // Whatever the READER read meanwhile must still reach side 0. Before
  // "second", the link may write "first" again: a plain channel has no
  // replay guard to drop that copy.
  link_replies->push(reply);
  link.body();
  ASSERT_GE(link.socket(0), 0) << "the held reply was not taken";
  std::vector<std::string> got;
  ASSERT_TRUE(rig.pump_until([&] {
    while (std::optional<std::string> frame = recv_string(*rig.a)) {
      got.push_back(*frame);
    }
    return !got.empty() && got.back() == "second";
  })) << "the resent frame was lost";
  for (std::size_t i = 0; i + 1 < got.size(); ++i) EXPECT_EQ(got[i], "first");
  EXPECT_FALSE(rig.b->pending());
}

TEST_F(ChannelLinkTest, ResetMidRoundWritesTheLastFrameAgain) {
  core::RuntimeOptions options;
  options.pool_nodes = 1024;
  core::Runtime rt(options);
  net::NetSubsystem net = net::install_networking(rt, "net.sys");
  smc::SmcConfig config;
  config.parties = 3;
  config.dim = 8;
  smc::SmcDeployment dep = smc::install_net_ring(rt, config, net);
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

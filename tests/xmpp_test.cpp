#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/migration.hpp"
#include "core/runtime.hpp"
#include "net/actors.hpp"
#include "sgxsim/cost_model.hpp"
#include "str_cat.hpp"
#include "xmpp/baseline_server.hpp"
#include "xmpp/client.hpp"
#include "xmpp/e2e.hpp"
#include "xmpp/server.hpp"
#include "xmpp/stanza.hpp"

namespace ea::xmpp {
namespace {

using test::str_cat;
using namespace std::chrono_literals;

// --- XML / stanza layer -------------------------------------------------------

TEST(Xml, ParseSimpleElement) {
  std::size_t pos = 0;
  auto node = parse_element("<message to='bob' from=\"alice\"/>", pos);
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ(node->name, "message");
  ASSERT_NE(node->attr("to"), nullptr);
  EXPECT_EQ(*node->attr("to"), "bob");
  EXPECT_EQ(*node->attr("from"), "alice");
  EXPECT_EQ(node->attr("missing"), nullptr);
}

TEST(Xml, ParseNestedWithText) {
  std::size_t pos = 0;
  auto node =
      parse_element("<message><body>hi there</body><x/></message>", pos);
  ASSERT_TRUE(node.has_value());
  ASSERT_EQ(node->children.size(), 2u);
  EXPECT_EQ(node->children[0].name, "body");
  EXPECT_EQ(node->children[0].text, "hi there");
  EXPECT_NE(node->child("x"), nullptr);
  EXPECT_EQ(node->child("nope"), nullptr);
}

TEST(Xml, EscapeRoundTrip) {
  std::string nasty = "a<b>&c'd\"e";
  EXPECT_EQ(xml_unescape(xml_escape(nasty)), nasty);
}

TEST(Xml, SerializeParseRoundTrip) {
  XmlNode node;
  node.name = "message";
  node.set_attr("to", "bob@host");
  node.set_attr("type", "chat");
  XmlNode body;
  body.name = "body";
  body.text = "tricky <&> text";
  node.children.push_back(body);

  std::string wire = node.serialize();
  std::size_t pos = 0;
  auto parsed = parse_element(wire, pos);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(pos, wire.size());
  EXPECT_EQ(parsed->name, "message");
  EXPECT_EQ(*parsed->attr("to"), "bob@host");
  EXPECT_EQ(parsed->child("body")->text, "tricky <&> text");
}

TEST(Xml, RejectsMismatchedClose) {
  std::size_t pos = 0;
  EXPECT_FALSE(parse_element("<a><b></a></b>", pos).has_value());
}

TEST(Xml, RejectsTruncated) {
  std::size_t pos = 0;
  EXPECT_FALSE(parse_element("<a attr='x'", pos).has_value());
}

TEST(StanzaStreamTest, EmitsEventsAcrossChunkBoundaries) {
  StanzaStream stream;
  std::string data = make_stream_open("srv") +
                     make_chat_message("a", "b", "hello") +
                     make_stream_close();
  // Feed one byte at a time — brutal fragmentation.
  std::vector<StanzaStream::Event> events;
  for (char c : data) {
    stream.feed(std::string_view(&c, 1));
    while (auto event = stream.next()) events.push_back(std::move(*event));
  }
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, StanzaStream::EventType::kStreamOpen);
  EXPECT_EQ(events[1].type, StanzaStream::EventType::kStanza);
  EXPECT_EQ(events[1].node.name, "message");
  EXPECT_EQ(events[2].type, StanzaStream::EventType::kStreamClose);
  EXPECT_FALSE(stream.failed());
}

TEST(StanzaStreamTest, MultipleStanzasInOneChunk) {
  StanzaStream stream;
  stream.feed(make_auth("alice") + make_chat_message("a", "b", "1") +
              make_chat_message("a", "b", "2"));
  int count = 0;
  while (auto event = stream.next()) ++count;
  EXPECT_EQ(count, 3);
}

TEST(StanzaStreamTest, GarbageMarksFailure) {
  StanzaStream stream;
  stream.feed("this is not xml");
  EXPECT_FALSE(stream.next().has_value());
  EXPECT_TRUE(stream.failed());
}

// A client picks the parser's recursion depth. 1,000 levels are 3,000
// bytes, far below the 64 KiB stanza cap, so only the nesting limit can
// fail the stream before the rest of the stanza arrives.
TEST(StanzaStreamTest, DeepNestingFailsTheStream) {
  StanzaStream stream;
  stream.feed(make_stream_open("srv"));
  auto open = stream.next();
  ASSERT_TRUE(open.has_value());
  EXPECT_EQ(open->type, StanzaStream::EventType::kStreamOpen);
  std::string deep;
  for (int i = 0; i < 1000; ++i) deep += "<a>";
  stream.feed(deep);
  EXPECT_FALSE(stream.next().has_value());
  EXPECT_TRUE(stream.failed());
}

TEST(Xml, NestingLimitIsInclusive) {
  auto nested = [](int levels) {
    std::string open;
    std::string close;
    for (int i = 0; i < levels; ++i) {
      open += "<a>";
      close += "</a>";
    }
    return open + close;
  };
  std::size_t pos = 0;
  const std::string at_limit = nested(kMaxNesting);
  ASSERT_TRUE(parse_element(at_limit, pos).has_value());
  EXPECT_EQ(pos, at_limit.size());
  pos = 0;
  EXPECT_FALSE(parse_element(nested(kMaxNesting + 1), pos).has_value());
}

TEST(StanzaStreamTest, XmlDeclarationSkipped) {
  StanzaStream stream;
  stream.feed("<?xml version='1.0'?>" + make_auth("bob"));
  auto event = stream.next();
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->node.name, "auth");
}

// --- service-level crypto -------------------------------------------------------

// --- Sharded routing tables ----------------------------------------------
//
// The Directory and RoomTable are sharded by client-id hash
// (kXmppShards, server.hpp): the tests spread enough distinct keys that
// every shard is exercised and the cross-shard sweeps (size, leave_all)
// see entries in more than one shard.

TEST(ShardedTables, DirectorySpansShards) {
  Directory dir;
  constexpr int kUsers = 200;  // ≫ kXmppShards: every shard gets keys
  for (int i = 0; i < kUsers; ++i) {
    dir.put("user" + std::to_string(i), Route{i, i % 3});
  }
  EXPECT_EQ(dir.size(), static_cast<std::size_t>(kUsers));
  for (int i = 0; i < kUsers; ++i) {
    auto route = dir.get("user" + std::to_string(i));
    ASSERT_TRUE(route.has_value()) << i;
    EXPECT_EQ(route->socket, i);
    EXPECT_EQ(route->instance, i % 3);
  }
  EXPECT_FALSE(dir.get("nobody").has_value());
  for (int i = 0; i < kUsers; i += 2) {
    EXPECT_TRUE(dir.remove("user" + std::to_string(i), i)) << i;
  }
  EXPECT_EQ(dir.size(), static_cast<std::size_t>(kUsers / 2));
  // A route that names another socket (a later login) stays.
  EXPECT_FALSE(dir.remove("user1", 0));
  EXPECT_FALSE(dir.remove("user0", 0));
  EXPECT_FALSE(dir.get("user0").has_value());
  EXPECT_TRUE(dir.get("user1").has_value());
  // Overwrite goes to the same shard entry, not a duplicate.
  dir.put("user1", Route{999, 0});
  EXPECT_EQ(dir.get("user1")->socket, 999);
  EXPECT_EQ(dir.size(), static_cast<std::size_t>(kUsers / 2));
}

TEST(ShardedTables, RoomTableLeaveAllSweepsEveryShard) {
  RoomTable rooms;
  constexpr int kRooms = 64;
  for (int r = 0; r < kRooms; ++r) {
    const std::string room = "room" + std::to_string(r);
    rooms.join(room, "everywhere");  // lands in kRooms distinct shards
    rooms.join(room, "member" + std::to_string(r));
    rooms.join(room, "member" + std::to_string(r));  // idempotent
  }
  for (int r = 0; r < kRooms; ++r) {
    auto members = rooms.members("room" + std::to_string(r));
    ASSERT_EQ(members.size(), 2u) << r;
  }
  EXPECT_TRUE(rooms.members("ghost-room").empty());
  // leave_all walks all shards sequentially (release-before-acquire).
  rooms.leave_all("everywhere");
  for (int r = 0; r < kRooms; ++r) {
    auto members = rooms.members("room" + std::to_string(r));
    ASSERT_EQ(members.size(), 1u) << r;
    EXPECT_EQ(members[0], "member" + std::to_string(r));
  }
}

TEST(ShardedTables, ConcurrentMixedOperations) {
  // Shard locks under real contention: 8 threads hammer disjoint key
  // ranges plus a shared hot room. Run under TSan via the xmpp_test
  // binary; the assertion here is consistency of the final state.
  Directory dir;
  RoomTable rooms;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string jid = str_cat("t", t, "u", i);
        dir.put(jid, Route{t * kPerThread + i, t});
        rooms.join("hot-room", jid);
        rooms.join("room-of-" + jid, jid);
        if (i % 3 == 0) {
          dir.remove(jid, t * kPerThread + i);
          rooms.leave_all(jid);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::size_t expected_live = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      if (i % 3 != 0) ++expected_live;
    }
  }
  EXPECT_EQ(dir.size(), expected_live);
  EXPECT_EQ(rooms.members("hot-room").size(), expected_live);
}

TEST(E2E, SealOpenRoundTrip) {
  auto key = user_key("alice", kCtxO2O);
  std::string sealed = seal_body(key, 42, "plaintext body");
  auto opened = open_body(key, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, "plaintext body");
}

TEST(E2E, DistinctUsersDistinctKeys) {
  std::string sealed = seal_body(user_key("alice", kCtxO2O), 1, "secret");
  EXPECT_FALSE(open_body(user_key("bob", kCtxO2O), sealed).has_value());
}

TEST(E2E, DistinctContextsDistinctKeys) {
  std::string sealed = seal_body(user_key("alice", kCtxO2O), 1, "secret");
  EXPECT_FALSE(open_body(user_key("alice", kCtxGroup), sealed).has_value());
}

TEST(E2E, NonHexBodyRejected) {
  EXPECT_FALSE(open_body(user_key("a", kCtxO2O), "zz-not-hex").has_value());
}

// --- EActors service end-to-end ---------------------------------------------------

class XmppServiceTest : public ::testing::Test {
 protected:
  XmppServiceTest() {
    sgxsim::cost_model().ecall_cycles = 100;
    sgxsim::cost_model().ocall_cycles = 100;
  }
  sgxsim::ScopedCostModel scoped_;
};

core::RuntimeOptions service_runtime_options() {
  core::RuntimeOptions options;
  options.pool_nodes = 2048;
  options.node_payload_bytes = 2048;
  return options;
}

TEST_F(XmppServiceTest, O2OChatRoundTrip) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  config.instances = 1;
  XmppService service = install_xmpp_service(rt, config);
  rt.start();

  Client alice, bob;
  ASSERT_TRUE(alice.connect(service.port, "alice"));
  ASSERT_TRUE(bob.connect(service.port, "bob"));

  ASSERT_TRUE(alice.send_chat("bob", "hi bob, e2e!"));
  auto msg = bob.recv(5000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, "chat");
  EXPECT_EQ(msg->from, "alice");
  EXPECT_TRUE(msg->decrypt_ok);
  EXPECT_EQ(msg->body, "hi bob, e2e!");
  rt.stop();
}

TEST_F(XmppServiceTest, O2OAcrossInstances) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  config.instances = 2;
  XmppService service = install_xmpp_service(rt, config);
  rt.start();

  // Round-robin assignment puts consecutive connections on different
  // instances, forcing the cross-instance routing path.
  Client alice, bob;
  ASSERT_TRUE(alice.connect(service.port, "alice"));
  ASSERT_TRUE(bob.connect(service.port, "bob"));

  ASSERT_TRUE(alice.send_chat("bob", "cross-instance"));
  auto msg = bob.recv(5000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->body, "cross-instance");

  ASSERT_TRUE(bob.send_chat("alice", "and back"));
  auto reply = alice.recv(5000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->body, "and back");
  rt.stop();
}

TEST_F(XmppServiceTest, GroupChatFanOut) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  config.instances = 2;
  XmppService service = install_xmpp_service(rt, config);
  rt.start();

  constexpr int kMembers = 4;
  std::vector<std::unique_ptr<Client>> members;
  for (int i = 0; i < kMembers; ++i) {
    auto c = std::make_unique<Client>();
    ASSERT_TRUE(c->connect(service.port, "user" + std::to_string(i)));
    ASSERT_TRUE(c->join_room("room1"));
    members.push_back(std::move(c));
  }

  ASSERT_TRUE(members[0]->send_groupchat("room1", "hello group"));
  for (int i = 0; i < kMembers; ++i) {
    auto msg = members[static_cast<std::size_t>(i)]->recv(5000);
    ASSERT_TRUE(msg.has_value()) << "member " << i;
    EXPECT_EQ(msg->kind, "groupchat");
    EXPECT_TRUE(msg->decrypt_ok) << "member " << i;
    EXPECT_EQ(msg->body, "hello group");
    EXPECT_EQ(msg->from, "room1/user0");
  }
  rt.stop();
}

TEST_F(XmppServiceTest, UntrustedDeploymentBehavesIdentically) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  config.instances = 1;
  config.trusted = false;
  XmppService service = install_xmpp_service(rt, config);
  rt.start();

  Client alice, bob;
  ASSERT_TRUE(alice.connect(service.port, "alice"));
  ASSERT_TRUE(bob.connect(service.port, "bob"));
  ASSERT_TRUE(alice.send_chat("bob", "works untrusted"));
  auto msg = bob.recv(5000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->body, "works untrusted");
  rt.stop();
}

TEST_F(XmppServiceTest, UnknownRecipientYieldsError) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  XmppService service = install_xmpp_service(rt, config);
  rt.start();

  Client alice;
  ASSERT_TRUE(alice.connect(service.port, "alice"));
  ASSERT_TRUE(alice.send_chat("nobody", "hello?"));
  auto msg = alice.recv(5000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->kind, "stream:error");
  rt.stop();
}

// A user who logs in again before the old connection's teardown reaches the
// instance keeps the new login: the stale teardown must not remove its
// route, take it out of its rooms, or report it offline.
TEST_F(XmppServiceTest, StaleTeardownKeepsTheNewLoginOfTheSameJid) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  XmppService service = install_xmpp_service(rt, config);
  rt.start();
  auto* closer = dynamic_cast<net::CloserActor*>(rt.find_actor("xmpp.closer"));
  ASSERT_NE(closer, nullptr);

  Client first, second, sender;
  ASSERT_TRUE(first.connect(service.port, "twice"));
  ASSERT_TRUE(first.join_room("lobby"));
  ASSERT_TRUE(second.connect(service.port, "twice"));
  ASSERT_TRUE(second.join_room("lobby"));
  ASSERT_TRUE(sender.connect(service.port, "sender"));

  // The first login's teardown is done once the CLOSER has closed it.
  first.close();
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (closer->closes() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_EQ(closer->closes(), 1u);

  ASSERT_TRUE(sender.send_chat("twice", "still here?"));
  auto msg = second.recv(5000);
  ASSERT_TRUE(msg.has_value()) << "the stale teardown removed the new route";
  EXPECT_EQ(msg->kind, "chat");
  EXPECT_EQ(msg->body, "still here?");
  EXPECT_FALSE(sender.poll().has_value()) << "sender got an error";
  const std::vector<std::string> members =
      service.shared->rooms.members("lobby");
  EXPECT_NE(std::find(members.begin(), members.end(), "twice"), members.end())
      << "the stale teardown took the new login out of its room";
  rt.stop();
}

TEST_F(XmppServiceTest, UnauthedMessageRejected) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  XmppService service = install_xmpp_service(rt, config);
  rt.start();

  // Hand-rolled client that skips auth.
  net::Socket raw = net::Socket::connect_to("127.0.0.1", service.port);
  ASSERT_TRUE(raw.valid());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::string wire =
      make_stream_open("x") + make_chat_message("a", "b", "sneak");
  std::size_t sent = 0;
  while (sent < wire.size()) {
    long n = raw.write_nb(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(wire.data()) + sent,
        wire.size() - sent));
    ASSERT_GE(n, 0);
    sent += static_cast<std::size_t>(n);
    if (n == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Expect a not-authorized error back.
  std::string response;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline &&
         response.find("not-authorized") == std::string::npos) {
    std::uint8_t buf[512];
    long n = raw.read_nb(buf);
    if (n > 0) response.append(reinterpret_cast<char*>(buf), static_cast<std::size_t>(n));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_NE(response.find("not-authorized"), std::string::npos);
  rt.stop();
}

// Connects `count` clients named <prefix>0, <prefix>1, ... and joins each
// to `room`.
std::vector<std::unique_ptr<Client>> join_members(std::uint16_t port,
                                                  const std::string& prefix,
                                                  const std::string& room,
                                                  int count) {
  std::vector<std::unique_ptr<Client>> members;
  for (int i = 0; i < count; ++i) {
    auto c = std::make_unique<Client>();
    const std::string jid = str_cat(prefix, i);
    EXPECT_TRUE(c->connect(port, jid)) << jid;
    EXPECT_TRUE(c->join_room(room)) << jid;
    members.push_back(std::move(c));
  }
  return members;
}

// Every member sends one groupchat; each must reach every member,
// decrypted. With members spread over instances, the senders on instances
// that do not own the room go through a room channel.
void groupchat_round(std::vector<std::unique_ptr<Client>>& members,
                     const std::string& room, const std::string& tag) {
  for (std::size_t sender = 0; sender < members.size(); ++sender) {
    const std::string text = str_cat(tag, sender);
    ASSERT_TRUE(members[sender]->send_groupchat(room, text));
    for (std::size_t i = 0; i < members.size(); ++i) {
      auto msg = members[i]->recv(5000);
      ASSERT_TRUE(msg.has_value()) << "sender " << sender << " member " << i;
      EXPECT_EQ(msg->body, text);
      EXPECT_TRUE(msg->decrypt_ok);
    }
  }
}

// The room channels of a 3-instance service: xmpp.room.<lo>.<hi>.
std::vector<core::Channel*> room_channels(core::Runtime& rt) {
  std::vector<core::Channel*> rooms;
  for (const char* name : {"xmpp.room.0.1", "xmpp.room.0.2", "xmpp.room.1.2"}) {
    auto it = rt.channels().find(name);
    EXPECT_NE(it, rt.channels().end()) << name;
    if (it != rt.channels().end()) rooms.push_back(it->second.get());
  }
  return rooms;
}

TEST_F(XmppServiceTest, GroupChatAcrossEnclavesUsesEncryptedTransfers) {
  // With one instance per enclave and a 4-member group, transfers from
  // non-owner instances travel sealed through untrusted node memory; the
  // message must still arrive intact at every member.
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  config.instances = 3;
  config.enclaves = 3;
  XmppService service = install_xmpp_service(rt, config);
  rt.start();
  std::vector<core::Channel*> rooms = room_channels(rt);
  ASSERT_EQ(rooms.size(), 3u);
  for (core::Channel* ch : rooms) EXPECT_TRUE(ch->encrypted()) << ch->name();

  auto members = join_members(service.port, "enc-user", "enc-room", 4);
  // Every member sends once, so at least two senders sit on non-owner
  // instances and exercise the sealed path.
  ASSERT_NO_FATAL_FAILURE(groupchat_round(members, "enc-room", "msg-"));
  std::uint64_t transfers = 0;
  for (core::Channel* ch : rooms) {
    transfers += ch->payload_copies();
    EXPECT_EQ(ch->auth_failures(), 0u) << ch->name();
  }
  EXPECT_GE(transfers, 2u);
  rt.stop();
}

TEST_F(XmppServiceTest, SingleEnclavePackingUsesPlainTransfers) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  config.instances = 3;
  config.enclaves = 1;  // all instances share one enclave
  XmppService service = install_xmpp_service(rt, config);
  rt.start();
  std::vector<core::Channel*> rooms = room_channels(rt);
  ASSERT_EQ(rooms.size(), 3u);
  for (core::Channel* ch : rooms) EXPECT_FALSE(ch->encrypted()) << ch->name();
  rt.stop();
}

// Any instance may migrate: the coordinator rebinds its room channels, so
// the one to a co-located peer turns plain, the others are rekeyed, and
// room traffic keeps flowing.
TEST_F(XmppServiceTest, MultiInstanceMigrationRekeysRoomChannels) {
  core::RuntimeOptions options = service_runtime_options();
  options.sched = core::SchedMode::kSteal;
  core::Runtime rt(options);
  XmppServiceConfig config;
  config.instances = 3;
  config.enclaves = 3;
  XmppService service = install_xmpp_service(rt, config);
  rt.start();

  auto members = join_members(service.port, "mig-user", "mig-room", 4);
  ASSERT_NO_FATAL_FAILURE(groupchat_round(members, "mig-room", "before-"));

  core::MigrationCoordinator coordinator(rt);
  ASSERT_EQ(coordinator.migrate(*service.instances[1], rt.enclave("xmpp.e0")),
            core::MigrateResult::kOk);
  EXPECT_FALSE(rt.channels().at("xmpp.room.0.1")->encrypted());
  EXPECT_TRUE(rt.channels().at("xmpp.room.0.2")->encrypted());
  EXPECT_TRUE(rt.channels().at("xmpp.room.1.2")->encrypted());

  ASSERT_NO_FATAL_FAILURE(groupchat_round(members, "mig-room", "after-"));
  for (const auto& [name, ch] : rt.channels()) {
    EXPECT_EQ(ch->auth_failures(), 0u) << name;
  }
  rt.stop();
}

// Each instance re-seals a groupchat for every member under the member's
// deployment-wide key, so the nonce must be fresh randomness: two
// instances handling their first groupchat must not pick the same one.
TEST_F(XmppServiceTest, GroupchatNoncesDifferAcrossInstances) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  config.instances = 2;
  XmppService service = install_xmpp_service(rt, config);
  XmppShared& shared = *service.shared;

  // The runtime is not started: the test runs the instance bodies itself,
  // and nothing drains the WRITER input of instance 0, where the one
  // member is routed. Each instance owns one of two rooms with that member.
  shared.directory.put("member", Route{/*socket=*/7, /*instance=*/0});
  std::string rooms[2];
  for (int i = 0; rooms[0].empty() || rooms[1].empty(); ++i) {
    const std::string room = str_cat("room", i);
    rooms[shared.room_owner(room)] = room;
  }
  concurrent::Mbox& delivered = *shared.writer_inputs[0];
  std::string nonces[2];
  for (int k = 0; k < 2; ++k) {
    shared.rooms.join(rooms[k], "member");
    std::string wire = make_stream_open("ea");
    wire += make_auth("sender");
    wire += make_groupchat_message(
        "sender", rooms[k],
        seal_body(user_key("sender", kCtxGroupUp), 1, "same text"));
    concurrent::Node* node = shared.pool->get();
    ASSERT_NE(node, nullptr);
    node->fill(wire);
    node->tag = 5;  // the sender's socket
    shared.inboxes[static_cast<std::size_t>(k)]->push(node);
    service.instances[static_cast<std::size_t>(k)]->body();

    while (concurrent::Node* out = delivered.pop()) {
      concurrent::NodeLease lease(out);
      if (out->tag != 7) continue;
      std::size_t pos = 0;
      auto stanza = parse_element(out->view(), pos);
      ASSERT_TRUE(stanza.has_value() && stanza->child("body") != nullptr);
      nonces[k] =
          stanza->child("body")->text.substr(0, 2 * crypto::kAeadNonceSize);
    }
    ASSERT_FALSE(nonces[k].empty()) << "instance " << k;
  }
  EXPECT_NE(nonces[0], nonces[1]);
}

// Queues `bytes` from `socket` in instance 0's inbox, as the READER does; an
// empty string is the socket's EOF note.
void deliver(XmppShared& shared, net::SocketId socket,
             const std::string& bytes, concurrent::Node* node) {
  node->fill(bytes);
  node->tag = static_cast<std::uint64_t>(socket);
  shared.inboxes[0]->push(node);
}

// A client that ends while every pool node is taken must still get its
// socket closed: the node that ended it, the EOF note or the data that
// broke the stream, becomes the close request.
TEST_F(XmppServiceTest, DryPoolDropStillClosesTheSocket) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  XmppService service = install_xmpp_service(rt, config);
  XmppShared& shared = *service.shared;

  // The runtime is not started: the test runs the instance body itself,
  // and nothing drains the CLOSER's input.
  std::vector<concurrent::Node*> held;
  while (concurrent::Node* node = shared.pool->get()) held.push_back(node);
  ASSERT_GE(held.size(), 2u);
  concurrent::Node* notes[2] = {held.back(), held[held.size() - 2]};
  held.resize(held.size() - 2);

  deliver(shared, /*socket=*/5, "", notes[0]);
  service.instances[0]->body();
  ASSERT_EQ(shared.closer_input->size(), 1u) << "EOF: no close request";
  concurrent::NodeLease eof_close(shared.closer_input->pop());
  EXPECT_EQ(eof_close->tag, 5u);

  deliver(shared, /*socket=*/6, "this is not xml", notes[1]);
  service.instances[0]->body();
  ASSERT_EQ(shared.closer_input->size(), 1u)
      << "malformed stream: no close request";
  concurrent::NodeLease bad_close(shared.closer_input->pop());
  EXPECT_EQ(bad_close->tag, 6u);
  EXPECT_EQ(bad_close->size, 0u);

  for (concurrent::Node* node : held) shared.pool->put(node);
}

// A stream authenticates once. A second auth is refused and the first jid
// stays, so the stream's teardown removes every route it added.
TEST_F(XmppServiceTest, SecondAuthOnAStreamIsRefused) {
  core::Runtime rt(service_runtime_options());
  XmppServiceConfig config;
  XmppService service = install_xmpp_service(rt, config);
  XmppShared& shared = *service.shared;

  // Hand-driven on an unstarted runtime, as above.
  concurrent::Node* data = shared.pool->get();
  ASSERT_NE(data, nullptr);
  deliver(shared, /*socket=*/5,
          make_stream_open("ea") + make_auth("alice") + make_auth("bob"),
          data);
  service.instances[0]->body();

  std::vector<std::string> replies;
  while (concurrent::Node* out = shared.writer_inputs[0]->pop()) {
    concurrent::NodeLease lease(out);
    EXPECT_EQ(out->tag, 5u);
    replies.emplace_back(out->view());
  }
  ASSERT_EQ(replies.size(), 3u);  // stream open, success, error
  EXPECT_EQ(replies[1], make_auth_success());
  EXPECT_EQ(replies[2], make_error("bad-auth"));
  ASSERT_TRUE(shared.directory.get("alice").has_value());
  EXPECT_EQ(shared.directory.get("alice")->socket, 5);
  EXPECT_FALSE(shared.directory.get("bob").has_value());

  concurrent::Node* eof = shared.pool->get();
  ASSERT_NE(eof, nullptr);
  deliver(shared, /*socket=*/5, "", eof);
  service.instances[0]->body();
  EXPECT_EQ(shared.directory.size(), 0u)
      << "the teardown left a route to the closed socket";
}

// --- baseline servers --------------------------------------------------------------

class BaselineTest : public ::testing::TestWithParam<BaselineFlavor> {};

TEST_P(BaselineTest, O2OChatRoundTrip) {
  BaselineOptions options;
  options.flavor = GetParam();
  BaselineServer server(options);
  server.start();

  Client alice, bob;
  ASSERT_TRUE(alice.connect(server.port(), "alice"));
  ASSERT_TRUE(bob.connect(server.port(), "bob"));
  ASSERT_TRUE(alice.send_chat("bob", "baseline hello"));
  auto msg = bob.recv(5000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->body, "baseline hello");
  // The routed counter is bumped after the socket write; give the server
  // thread a moment to get there.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (server.messages_routed() < 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.messages_routed(), 1u);
  server.stop();
}

TEST_P(BaselineTest, GroupChatFanOut) {
  BaselineOptions options;
  options.flavor = GetParam();
  BaselineServer server(options);
  server.start();

  Client a, b, c;
  ASSERT_TRUE(a.connect(server.port(), "a"));
  ASSERT_TRUE(b.connect(server.port(), "b"));
  ASSERT_TRUE(c.connect(server.port(), "c"));
  ASSERT_TRUE(a.join_room("room"));
  ASSERT_TRUE(b.join_room("room"));
  ASSERT_TRUE(c.join_room("room"));

  ASSERT_TRUE(b.send_groupchat("room", "to everyone"));
  for (Client* client : {&a, &b, &c}) {
    auto msg = client->recv(5000);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->body, "to everyone");
    EXPECT_EQ(msg->from, "room/b");
  }
  server.stop();
}

INSTANTIATE_TEST_SUITE_P(Flavors, BaselineTest,
                         ::testing::Values(BaselineFlavor::kJabberd2,
                                           BaselineFlavor::kEjabberd));

}  // namespace
}  // namespace ea::xmpp

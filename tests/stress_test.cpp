// Heavier cross-module scenarios: correctness sweeps and conservation
// invariants under realistic concurrent load.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>

#include "core/runtime.hpp"
#include "sgxsim/cost_model.hpp"
#include "str_cat.hpp"
#include "util/failpoint.hpp"
#include "smc/party_actor.hpp"
#include "smc/sdk_ring.hpp"
#include "xmpp/client.hpp"
#include "xmpp/server.hpp"

namespace ea {
namespace {

using namespace std::chrono_literals;
using test::str_cat;

class StressTest : public ::testing::Test {
 protected:
  StressTest() {
    sgxsim::cost_model().ecall_cycles = 100;
    sgxsim::cost_model().ocall_cycles = 100;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
  }
  sgxsim::ScopedCostModel scoped_;
};

// --- SMC correctness across the full parameter matrix ------------------------

class SmcMatrix
    : public ::testing::TestWithParam<std::tuple<int, std::size_t, bool>> {
 protected:
  SmcMatrix() {
    sgxsim::cost_model().ecall_cycles = 10;
    sgxsim::cost_model().ocall_cycles = 10;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
  }
  sgxsim::ScopedCostModel scoped_;
};

TEST_P(SmcMatrix, SdkRingCorrectForAllConfigs) {
  auto [parties, dim, dynamic] = GetParam();
  smc::SmcConfig config;
  config.parties = parties;
  config.dim = dim;
  config.dynamic = dynamic;
  smc::SdkSecureSum smc(config);
  for (int round = 0; round < 3; ++round) {
    smc::Vec expected = smc.expected_sum();
    EXPECT_EQ(smc.run_once(), expected) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SmcMatrix,
    ::testing::Combine(::testing::Values(2, 3, 5, 8),
                       ::testing::Values(std::size_t{1}, std::size_t{7},
                                         std::size_t{128}),
                       ::testing::Bool()),
    [](const auto& suite_info) {
      return str_cat("p", std::get<0>(suite_info.param), "_d",
                     std::get<1>(suite_info.param),
                     std::get<2>(suite_info.param) ? "_dyn" : "_plain");
    });

// --- worker scheduling fairness ------------------------------------------------

TEST_F(StressTest, RoundRobinGivesEveryActorTurns) {
  struct Counter : core::Actor {
    using core::Actor::Actor;
    bool body() override { return false; }
  };
  core::Runtime rt;
  std::vector<core::Actor*> actors;
  for (int i = 0; i < 5; ++i) {
    auto actor = std::make_unique<Counter>(str_cat("c", i));
    actors.push_back(actor.get());
    rt.add_actor(std::move(actor));
  }
  rt.add_worker("w", {0}, {"c0", "c1", "c2", "c3", "c4"});
  rt.start();
  std::this_thread::sleep_for(50ms);
  rt.stop();

  // Round-robin: all invocation counts within one round of each other.
  std::uint64_t min_inv = ~0ull, max_inv = 0;
  for (core::Actor* actor : actors) {
    min_inv = std::min(min_inv, actor->invocations());
    max_inv = std::max(max_inv, actor->invocations());
  }
  EXPECT_GT(min_inv, 0u);
  EXPECT_LE(max_inv - min_inv, 1u);
}

TEST_F(StressTest, MakePoolIsIndependentOfPublicPool) {
  core::Runtime rt;
  concurrent::Pool& big = rt.make_pool(4, 128 * 1024);
  EXPECT_EQ(big.size(), 4u);
  concurrent::Node* n = big.get();
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->capacity, 128u * 1024u);
  EXPECT_EQ(n->home, &big);
  big.put(n);
  EXPECT_EQ(rt.public_pool().size(), core::RuntimeOptions{}.pool_nodes);
}

// --- XMPP reconnect and conservation ---------------------------------------------

core::RuntimeOptions big_runtime() {
  core::RuntimeOptions options;
  options.pool_nodes = 8192;
  options.node_payload_bytes = 2048;
  return options;
}

TEST_F(StressTest, ClientReconnectRestoresRouting) {
  core::Runtime rt(big_runtime());
  xmpp::XmppServiceConfig config;
  config.instances = 2;
  xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);
  rt.start();

  xmpp::Client alice;
  ASSERT_TRUE(alice.connect(service.port, "alice"));
  {
    xmpp::Client bob;
    ASSERT_TRUE(bob.connect(service.port, "bob"));
    ASSERT_TRUE(alice.send_chat("bob", "first life"));
    auto msg = bob.recv(5000);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->body, "first life");
    bob.close();
  }
  // bob gone: delivery now fails with recipient-unavailable.
  // Allow the server a moment to process the disconnect.
  std::this_thread::sleep_for(100ms);
  ASSERT_TRUE(alice.send_chat("bob", "into the void"));
  auto err = alice.recv(5000);
  ASSERT_TRUE(err.has_value());
  EXPECT_EQ(err->kind, "stream:error");

  // bob reconnects (likely on the other instance due to round-robin).
  xmpp::Client bob2;
  ASSERT_TRUE(bob2.connect(service.port, "bob"));
  ASSERT_TRUE(alice.send_chat("bob", "second life"));
  auto msg = bob2.recv(5000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->body, "second life");
  rt.stop();
}

#ifdef EA_FAILPOINTS
// Same routing-restoration property, but the outage is an injected socket
// reset and the healing is the client's own enable_reconnect() machinery
// instead of a hand-rolled second client.
TEST_F(StressTest, ClientAutoReconnectSurvivesInjectedReset) {
  util::failpoint::clear_all();
  core::Runtime rt(big_runtime());
  xmpp::XmppServiceConfig config;
  config.instances = 2;
  xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);
  rt.start();

  xmpp::Client alice, bob;
  alice.enable_reconnect();
  bob.enable_reconnect();
  ASSERT_TRUE(alice.connect(service.port, "alice"));
  ASSERT_TRUE(bob.connect(service.port, "bob"));

  // The next read anywhere in the process fails with a connection reset;
  // whoever absorbs it (a server READER or one of the clients) must heal
  // without outside help. Resend until a post-reset message arrives.
  util::failpoint::set("net.socket.read", "once(-1)");
  bool delivered = false;
  auto deadline = std::chrono::steady_clock::now() + 30s;
  while (!delivered && std::chrono::steady_clock::now() < deadline) {
    alice.send_chat("bob", "after the reset");
    auto resend_at = std::chrono::steady_clock::now() + 300ms;
    while (!delivered && std::chrono::steady_clock::now() < resend_at) {
      auto msg = bob.recv(50);
      if (msg.has_value() && msg->kind == "chat" &&
          msg->body == "after the reset") {
        delivered = true;
      }
    }
  }
  EXPECT_TRUE(delivered);
  EXPECT_GE(util::failpoint::hits("net.socket.read"), 1u);
  util::failpoint::clear_all();
  rt.stop();
}
#endif  // EA_FAILPOINTS

TEST_F(StressTest, MessageConservationUnderConcurrentChatter) {
  // N senders fire a burst at one receiver; every message must arrive
  // exactly once (mbox MPMC + writer serialisation must not drop or
  // duplicate).
  core::Runtime rt(big_runtime());
  xmpp::XmppServiceConfig config;
  config.instances = 2;
  xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);
  rt.start();

  constexpr int kSenders = 4;
  constexpr int kPerSender = 25;

  xmpp::Client receiver;
  ASSERT_TRUE(receiver.connect(service.port, "sink"));

  std::vector<std::thread> senders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      xmpp::Client client;
      if (!client.connect(service.port, "src" + std::to_string(s))) return;
      for (int i = 0; i < kPerSender; ++i) {
        while (!client.send_chat(
            "sink", std::to_string(s) + ":" + std::to_string(i))) {
          std::this_thread::sleep_for(1ms);
        }
      }
      // Keep the connection open until the receiver is done, otherwise
      // in-flight messages could race the disconnect.
      std::this_thread::sleep_for(2s);
    });
  }

  std::map<std::string, int> seen;
  int total = 0;
  auto deadline = std::chrono::steady_clock::now() + 15s;
  while (total < kSenders * kPerSender &&
         std::chrono::steady_clock::now() < deadline) {
    auto msg = receiver.recv(100);
    if (msg.has_value() && msg->kind == "chat") {
      ++seen[msg->body];
      ++total;
    }
  }
  for (auto& t : senders) t.join();
  rt.stop();

  EXPECT_EQ(total, kSenders * kPerSender);
  for (int s = 0; s < kSenders; ++s) {
    for (int i = 0; i < kPerSender; ++i) {
      std::string key = std::to_string(s) + ":" + std::to_string(i);
      EXPECT_EQ(seen[key], 1) << key;
    }
  }
}

}  // namespace
}  // namespace ea

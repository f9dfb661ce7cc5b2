// Supervision soak tests under fault injection (ctest labels: supervise,
// fault; EA_FAILPOINTS builds only).
//
// The robustness claim of DESIGN.md §12, demonstrated end to end: with a
// percentage of every actor body() replaced by an injected abort-class
// fault and sockets reset mid-conversation, supervised deployments keep
// delivering — the XMPP echo service loses no acknowledged message, the
// TCP secure-sum ring computes only correct sums, no healthy actor is
// quarantined, and node pools conserve once the dust settles.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/backoff.hpp"
#include "core/health.hpp"
#include "core/runtime.hpp"
#include "core/supervisor.hpp"
#include "net/actors.hpp"
#include "net/channel_link.hpp"
#include "net/socket.hpp"
#include "net/socket_table.hpp"
#include "sgxsim/cost_model.hpp"
#include "smc/party_actor.hpp"
#include "util/failpoint.hpp"
#include "xmpp/client.hpp"
#include "xmpp/server.hpp"

namespace fp = ea::util::failpoint;

namespace ea {
namespace {

using namespace std::chrono_literals;

concurrent::Node* pop_within(concurrent::Mbox& box,
                             std::chrono::milliseconds budget) {
  auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (concurrent::Node* n = box.pop()) return n;
    std::this_thread::sleep_for(1ms);
  }
  return nullptr;
}

// Lenient supervision for fault storms: restarts are fast and effectively
// unbudgeted, so only a genuinely unrecoverable actor could be quarantined.
core::SupervisorActor::Options storm_opts() {
  core::SupervisorActor::Options opts;
  opts.sweep_interval_us = 200;
  opts.default_policy.backoff = core::BackoffPolicy{100, 2000, 2, 20};
  opts.default_policy.max_restarts = 1'000'000;
  opts.default_policy.window_us = 10'000'000;
  return opts;
}

struct FlakyActor : core::Actor {
  using core::Actor::Actor;
  std::atomic<bool> throw_next{false};
  bool body() override {
    if (throw_next.load(std::memory_order_relaxed)) {
      throw std::runtime_error("boom");
    }
    return true;
  }
};

class SupervisionSoakTest : public ::testing::Test {
 protected:
  SupervisionSoakTest() {
    sgxsim::cost_model().ecall_cycles = 10;
    sgxsim::cost_model().ocall_cycles = 10;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
    fp::clear_all();
    fp::reset_counters();
  }
  ~SupervisionSoakTest() override { fp::clear_all(); }
  sgxsim::ScopedCostModel scoped_;
};

// A plain channel carried over loopback TCP by a link that dials its own
// listener. Used by the census and refusal tests.
struct CarriedScenario {
  core::Runtime rt;
  net::NetSubsystem net;
  core::ChannelEnd* a = nullptr;
  core::ChannelEnd* b = nullptr;

  CarriedScenario() {
    net = net::install_networking(rt, "net.sys");
    core::Channel& channel = rt.channel("carried");
    a = channel.connect(sgxsim::kUntrusted);
    b = channel.connect(sgxsim::kUntrusted);
    net::carry_channels(rt, {&channel}, net);
  }

  // Side 0 sends a frame; true once side 1 has it, within `budget`.
  bool carries(std::chrono::milliseconds budget) {
    if (!a->send(std::string_view("hello"))) return false;
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      if (concurrent::NodeLease frame = b->recv()) {
        return frame->view() == "hello";
      }
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }
};

// --- failpoint census --------------------------------------------------------

TEST_F(SupervisionSoakTest, CensusCoversSupervisionFailpointSites) {
  // Each site registers itself at its first evaluation; traverse all three
  // code paths, then assert the census lists them.

  // actor.body.throw: any contained invocation evaluates it.
  FlakyActor dummy("census.dummy");
  core::invoke_contained(dummy);

  // supervisor.restart.fail: one completed restart evaluates it.
  {
    core::Runtime rt;
    auto& actor = static_cast<FlakyActor&>(
        rt.add_actor(std::make_unique<FlakyActor>("census.flaky")));
    core::SupervisorActor::Options opts;
    opts.sweep_interval_us = 0;
    opts.default_policy.backoff = core::BackoffPolicy{0, 0, 2, 0};
    auto& sup = static_cast<core::SupervisorActor&>(
        rt.add_actor(std::make_unique<core::SupervisorActor>("sup", opts)));
    rt.start();
    actor.throw_next = true;
    core::invoke_contained(actor);
    actor.throw_next = false;
    sup.body();
    sup.body();
    EXPECT_EQ(actor.lifecycle(), core::ActorState::kRunnable);
    rt.stop();
  }

  // net.reconnect.refuse: evaluated on every successful reply to a channel
  // link's open.
  {
    CarriedScenario scenario;
    scenario.rt.start();
    EXPECT_TRUE(scenario.carries(5000ms));
    scenario.rt.stop();
  }

  auto names = fp::sites();
  auto has = [&](const char* site) {
    return std::find(names.begin(), names.end(), site) != names.end();
  };
  EXPECT_TRUE(has("actor.body.throw"));
  EXPECT_TRUE(has("supervisor.restart.fail"));
  EXPECT_TRUE(has("net.reconnect.refuse"));
}

// --- targeted injections -----------------------------------------------------

TEST_F(SupervisionSoakTest, InjectedRestartFailureRetriesUntilHealed) {
  core::Runtime rt;
  auto& actor = static_cast<FlakyActor&>(
      rt.add_actor(std::make_unique<FlakyActor>("flaky")));
  core::SupervisorActor::Options opts;
  opts.sweep_interval_us = 0;
  opts.default_policy.backoff = core::BackoffPolicy{0, 0, 2, 0};
  auto& sup = static_cast<core::SupervisorActor&>(
      rt.add_actor(std::make_unique<core::SupervisorActor>("sup", opts)));
  rt.start();

  actor.throw_next = true;
  core::invoke_contained(actor);
  actor.throw_next = false;

  ASSERT_TRUE(fp::set("supervisor.restart.fail", "once"));
  sup.body();  // schedule
  sup.body();  // perform -> injected restart failure
  EXPECT_EQ(actor.lifecycle(), core::ActorState::kFailed);
  EXPECT_EQ(sup.restart_failures(), 1u);
  EXPECT_GE(fp::hits("supervisor.restart.fail"), 1u);

  sup.body();  // re-schedule
  sup.body();  // perform, fault consumed: succeeds
  EXPECT_EQ(actor.lifecycle(), core::ActorState::kRunnable);
  EXPECT_EQ(sup.restarts_performed(), 1u);
  rt.stop();
}

TEST_F(SupervisionSoakTest, ChannelLinkSurvivesRefusedOpen) {
  CarriedScenario scenario;
  // The first open is refused at the handshake layer; the link must treat
  // it as a failed attempt, back off, and carry the frame over the retry.
  ASSERT_TRUE(fp::set("net.reconnect.refuse", "once"));
  scenario.rt.start();
  EXPECT_TRUE(scenario.carries(10'000ms));
  EXPECT_GE(fp::hits("net.reconnect.refuse"), 1u);
  scenario.rt.stop();
}

// --- XMPP echo soak ----------------------------------------------------------

TEST_F(SupervisionSoakTest, XmppEchoLosesNoAckedMessageUnderFaultStorm) {
  core::RuntimeOptions options;
  options.pool_nodes = 8192;
  options.node_payload_bytes = 2048;
  core::Runtime rt(options);
  xmpp::XmppServiceConfig config;
  config.instances = 2;
  xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);
  core::SupervisorActor& sup = core::install_supervisor(rt, storm_opts());

  // 1% of every (non-exempt) actor body turns into an abort-class fault.
  ASSERT_TRUE(fp::set("actor.body.throw", "1%return"));
  rt.start();

  xmpp::ClientReconnectPolicy reconnect;
  reconnect.max_attempts = 30;
  xmpp::Client alice, bob;
  alice.enable_reconnect(reconnect);
  bob.enable_reconnect(reconnect);
  ASSERT_TRUE(alice.connect(service.port, "alice"));
  ASSERT_TRUE(bob.connect(service.port, "bob"));

  // Bob echoes every chat back to alice; alice resends each message until
  // its echo arrives (= the acknowledgement), so a delivered echo proves
  // the round trip survived whatever faults hit in between.
  std::atomic<bool> stop{false};
  std::thread echo([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto msg = bob.recv(50);
      if (msg.has_value() && msg->kind == "chat" && msg->decrypt_ok) {
        for (int r = 0; r < 40 && !bob.send_chat("alice", msg->body); ++r) {
          std::this_thread::sleep_for(5ms);
        }
      }
    }
  });

  constexpr int kMessages = 25;
  auto deadline = std::chrono::steady_clock::now() + 120s;
  int delivered = 0;
  for (int i = 0; i < kMessages; ++i) {
    std::string payload = "echo-" + std::to_string(i);
    bool acked = false;
    while (!acked && std::chrono::steady_clock::now() < deadline) {
      alice.send_chat("bob", payload);
      auto resend_at = std::chrono::steady_clock::now() + 300ms;
      while (!acked && std::chrono::steady_clock::now() < resend_at) {
        auto msg = alice.recv(50);
        if (msg.has_value() && msg->kind == "chat" && msg->body == payload) {
          acked = true;
        }
      }
    }
    if (acked) ++delivered;
    // Periodic connection kills on top of the body-throw storm.
    if (i % 5 == 4) fp::set("net.socket.read", "once(-1)");
  }
  stop = true;
  echo.join();
  EXPECT_EQ(delivered, kMessages) << "an acknowledged round trip was lost";
  EXPECT_GE(fp::hits("actor.body.throw"), 1u);

  // Quiesce, then check the deployment healed rather than degraded: faults
  // were contained and restarted, and nothing healthy was quarantined.
  fp::clear_all();
  std::this_thread::sleep_for(200ms);
  core::HealthSnapshot snap = rt.health();
  EXPECT_EQ(snap.count_in_state(core::ActorState::kQuarantined), 0u);
  EXPECT_GE(sup.restarts_performed(), 1u);
  rt.stop();
}

// --- TCP secure-sum ring soak -------------------------------------------------

TEST_F(SupervisionSoakTest, NetRingComputesOnlyCorrectSumsUnderFaultStorm) {
  core::RuntimeOptions options;
  options.pool_nodes = 8192;
  options.node_payload_bytes = 2048;
  core::Runtime rt(options);
  net::NetSubsystem net = net::install_networking(rt, "net.sys");
  smc::SmcConfig config;
  config.parties = 3;
  config.dim = 4;
  smc::SmcDeployment dep = smc::install_net_ring(rt, config, net);
  core::SupervisorActor& sup = core::install_supervisor(rt, storm_opts());

  ASSERT_TRUE(fp::set("actor.body.throw", "1%return"));
  rt.start();

  smc::Vec expected(config.dim, 0);
  for (int i = 0; i < config.parties; ++i) {
    smc::add_in_place(expected, smc::initial_secret(i, config.dim));
  }

  constexpr int kRounds = 8;
  for (int round = 0; round < kRounds; ++round) {
    // Alternate rounds also get a socket reset somewhere in the ring: the
    // link re-dials and writes its last frame again, which must re-feed a
    // lost token.
    if (round % 2 == 1) fp::set("net.socket.read", "once(-1)");
    concurrent::Node* req = rt.public_pool().get();
    ASSERT_NE(req, nullptr);
    req->size = 0;
    dep.requests->push(req);

    concurrent::NodeLease result(pop_within(*dep.results, 60'000ms));
    ASSERT_TRUE(result) << "round " << round << " never completed";
    smc::Vec got = smc::deserialize(
        std::span<const std::uint8_t>(result->payload(), result->size));
    EXPECT_EQ(got, expected) << "round " << round;
  }
  EXPECT_GE(fp::hits("actor.body.throw"), 1u);

  fp::clear_all();
  std::this_thread::sleep_for(300ms);
  EXPECT_TRUE(dep.results->empty()) << "a request had two results";
  core::HealthSnapshot snap = rt.health();
  EXPECT_EQ(snap.count_in_state(core::ActorState::kQuarantined), 0u);
  EXPECT_GE(sup.restarts_performed(), 1u);
  rt.stop();

  // Node conservation after the storm: drain every privately held queue
  // (the same hooks a quarantine would run) and the public pool must be
  // exactly full again.
  for (const auto& actor : rt.actors()) {
    if (auto* link = dynamic_cast<net::ChannelLink*>(actor.get())) {
      link->on_quarantine();
    }
  }
  net.opener->on_quarantine();
  net.accepter->on_quarantine();
  net.reader->on_quarantine();
  net.writer->on_quarantine();
  net.closer->on_quarantine();
  while (concurrent::Node* n = dep.requests->pop()) {
    concurrent::NodeLease(n).reset();
  }
  while (concurrent::Node* n = dep.results->pop()) {
    concurrent::NodeLease(n).reset();
  }
  snap = rt.health();
  EXPECT_EQ(snap.pool.free, snap.pool.capacity)
      << "nodes leaked during the fault storm";
}

}  // namespace
}  // namespace ea

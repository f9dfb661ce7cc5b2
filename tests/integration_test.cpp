// Cross-module integration tests: full deployments exercising runtime,
// sgxsim, channels, networking and application logic together.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/runtime.hpp"
#include "core/worker.hpp"
#include "pos/cleaner_actor.hpp"
#include "pos/pos.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/transition.hpp"
#include "smc/party_actor.hpp"
#include "smc/sdk_ring.hpp"
#include "xmpp/client.hpp"
#include "xmpp/server.hpp"

namespace ea {
namespace {

using namespace std::chrono_literals;

class IntegrationTest : public ::testing::Test {
 protected:
  IntegrationTest() {
    sgxsim::cost_model().ecall_cycles = 100;
    sgxsim::cost_model().ocall_cycles = 100;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
  }
  sgxsim::ScopedCostModel scoped_;
};

// An actor that stores every received message into the POS and echoes the
// stored value back — exercising channel + POS + cleaner together.
class StoreActor : public core::Actor {
 public:
  StoreActor(std::string name, pos::Pos& store)
      : core::Actor(std::move(name)), store_(store) {}

  void construct(core::Runtime&) override { in_ = connect("to-store"); }

  bool body() override {
    // One epoch section per activation: the drain loop's store operations
    // share a single announcement instead of entering one each.
    pos::Pos::Section section(store_);
    bool progress = false;
    while (auto msg = in_->recv()) {
      std::string text(msg->view());
      auto sep = text.find('=');
      if (sep != std::string::npos) {
        store_.set(util::to_bytes(text.substr(0, sep)),
                   util::to_bytes(text.substr(sep + 1)));
        ++stored_;
      }
      progress = true;
    }
    return progress;
  }

  int stored() const noexcept { return stored_; }

 private:
  pos::Pos& store_;
  core::ChannelEnd* in_ = nullptr;
  std::atomic<int> stored_{0};
};

class FeedActor : public core::Actor {
 public:
  FeedActor(std::string name, int count)
      : core::Actor(std::move(name)), count_(count) {}

  void construct(core::Runtime&) override { out_ = connect("to-store"); }

  bool body() override {
    if (sent_ >= count_) return false;
    std::string msg =
        "key" + std::to_string(sent_ % 5) + "=value" + std::to_string(sent_);
    if (out_->send(msg)) ++sent_;
    return true;
  }

 private:
  core::ChannelEnd* out_ = nullptr;
  int count_;
  int sent_ = 0;
};

TEST_F(IntegrationTest, EnclavedStoreActorWithCleaner) {
  pos::PosOptions pos_options;
  pos_options.entry_count = 256;
  pos_options.entry_payload = 64;
  pos::Pos store(pos_options);

  core::Runtime rt;
  auto store_actor = std::make_unique<StoreActor>("store", store);
  StoreActor* store_ptr = store_actor.get();
  rt.add_actor(std::move(store_actor), "store-enclave");
  rt.add_actor(std::make_unique<FeedActor>("feed", 100));
  rt.add_actor(std::make_unique<pos::CleanerActor>("cleaner", store));
  rt.add_worker("w1", {0}, {"feed"});
  rt.add_worker("w2", {0}, {"store", "cleaner"});

  // Mixed worker (enclaved store + untrusted cleaner) exercises migration.
  rt.start();
  auto deadline = std::chrono::steady_clock::now() + 10s;
  while (store_ptr->stored() < 100 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  rt.stop();
  ASSERT_EQ(store_ptr->stored(), 100);

  // Latest version per key is visible.
  for (int k = 0; k < 5; ++k) {
    auto value = store.get(util::to_bytes("key" + std::to_string(k)));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(util::to_string(*value), "value" + std::to_string(95 + k));
  }
  // The cleaner reclaimed superseded versions (100 sets across 5 keys
  // cannot all remain live); drive remaining steps to quiesce.
  store.clean_step();
  store.clean_step();
  EXPECT_LE(store.stats().outdated, 5u);
}

TEST_F(IntegrationTest, XmppAndSmcCoexistInOneRuntime) {
  // One runtime hosting both use cases — the configurability claim.
  core::RuntimeOptions options;
  options.pool_nodes = 2048;
  options.node_payload_bytes = 2048;
  core::Runtime rt(options);

  xmpp::XmppServiceConfig xmpp_config;
  xmpp_config.instances = 1;
  xmpp::XmppService service = xmpp::install_xmpp_service(rt, xmpp_config);

  smc::SmcConfig smc_config;
  smc_config.parties = 3;
  smc_config.dim = 4;
  smc::SmcDeployment smc_dep = smc::install_secure_sum(rt, smc_config);

  rt.start();

  // XMPP path works.
  xmpp::Client alice, bob;
  ASSERT_TRUE(alice.connect(service.port, "alice"));
  ASSERT_TRUE(bob.connect(service.port, "bob"));
  ASSERT_TRUE(alice.send_chat("bob", "hi"));
  auto msg = bob.recv(5000);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->body, "hi");

  // SMC path works concurrently.
  smc::SdkSecureSum reference(smc_config);
  smc::Vec expected = reference.expected_sum();
  smc_dep.requests->push(rt.public_pool().get());
  auto deadline = std::chrono::steady_clock::now() + 10s;
  concurrent::Node* result = nullptr;
  while (result == nullptr && std::chrono::steady_clock::now() < deadline) {
    result = smc_dep.results->pop();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_NE(result, nullptr);
  concurrent::NodeLease lease(result);
  EXPECT_EQ(smc::deserialize(result->data()), expected);
  rt.stop();
}

// Worker names and CPUs that installed services get on 4 CPUs: the
// layouts perfbench's xmpp_echo and smc_ring run (one worker per group),
// and EA/48 (16 instances) packed onto one worker per role.
TEST_F(IntegrationTest, InstalledServicesPlaceOntoFourCpus) {
  auto layout = [](const core::Runtime& rt) {
    std::vector<std::pair<std::string, int>> out;
    for (const core::PlacedWorker& w : core::place_groups(rt.groups(), 4)) {
      out.emplace_back(w.name, w.cpu);
    }
    return out;
  };
  using Layout = std::vector<std::pair<std::string, int>>;
  {
    core::Runtime rt;
    xmpp::XmppServiceConfig config;
    config.instances = 1;
    xmpp::install_xmpp_service(rt, config);
    EXPECT_EQ(layout(rt), (Layout{{"xmpp.net0", 0},
                                  {"xmpp.conn", 1},
                                  {"xmpp.app0", 2},
                                  {"xmpp.net1", 3}}));
  }
  {
    core::Runtime rt;
    smc::SmcConfig config;
    config.parties = 3;
    smc::install_secure_sum(rt, config);
    EXPECT_EQ(layout(rt),
              (Layout{{"smc.w0", 0}, {"smc.w1", 1}, {"smc.w2", 2}}));
  }
  {
    core::Runtime rt;
    xmpp::XmppServiceConfig config;
    config.instances = 16;
    xmpp::install_xmpp_service(rt, config);
    EXPECT_EQ(rt.groups().size(), 34u);
    const std::vector<core::PlacedWorker> plan =
        core::place_groups(rt.groups(), 4);
    EXPECT_EQ(layout(rt), (Layout{{"xmpp.net0", 0},
                                  {"xmpp.conn", 1},
                                  {"xmpp.app", 2},
                                  {"xmpp.net", 3}}));
    EXPECT_EQ(plan[2].actors.size(), 16u);
    EXPECT_EQ(plan[3].actors.size(), 32u);
  }
}

TEST_F(IntegrationTest, Figure16StyleEnclavePacking) {
  // 4 instances packed into 1, 2 and 4 enclaves must all be functional.
  for (int enclaves : {1, 2, 4}) {
    core::RuntimeOptions options;
    options.pool_nodes = 2048;
    core::Runtime rt(options);
    xmpp::XmppServiceConfig config;
    config.instances = 4;
    config.enclaves = enclaves;
    xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);
    rt.start();

    xmpp::Client a, b;
    ASSERT_TRUE(a.connect(service.port, "a")) << enclaves;
    ASSERT_TRUE(b.connect(service.port, "b")) << enclaves;
    ASSERT_TRUE(a.send_chat("b", "packed"));
    auto msg = b.recv(5000);
    ASSERT_TRUE(msg.has_value()) << enclaves;
    EXPECT_EQ(msg->body, "packed");
    rt.stop();
  }
}

// Fig. 16's packing: 16 instances on one worker, in 2 enclaves. Each
// enclave holds a contiguous block of instances, so the worker enters each
// enclave once per round instead of on every dispatch.
TEST_F(IntegrationTest, PackedInstancesEnterEachEnclaveOncePerRound) {
  core::RuntimeOptions options;
  options.pool_nodes = 2048;
  core::Runtime rt(options);
  xmpp::XmppServiceConfig config;
  config.instances = 16;
  config.enclaves = 2;
  xmpp::install_xmpp_service(rt, config);
  std::vector<std::string> instances;
  for (int i = 0; i < config.instances; ++i) {
    instances.push_back("xmpp.i" + std::to_string(i));
  }
  const core::Worker& packed = rt.add_worker("packed", {0}, instances);
  rt.start();

  sgxsim::Enclave& e0 = rt.enclave("xmpp.e0");
  sgxsim::Enclave& e1 = rt.enclave("xmpp.e1");
  // The counter WorkerHealth::rounds reports, read without a snapshot so
  // that a sample fits inside one round.
  auto rounds = [&] { return packed.rounds(); };
  // Rounds and entries read within one round: the worker enters e0 at
  // instance 0 and e1 at instance 8, so such a pair is off by at most 2.
  auto sample = [&] {
    for (;;) {
      const std::uint64_t r = rounds();
      const std::uint64_t e = e0.entries() + e1.entries();
      if (rounds() == r) return std::pair{r, e};
    }
  };
  const auto [rounds0, entries0] = sample();
  auto deadline = std::chrono::steady_clock::now() + 10s;
  while (rounds() < rounds0 + 50 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  const auto [rounds1, entries1] = sample();
  rt.stop();

  const std::uint64_t window_rounds = rounds1 - rounds0;
  ASSERT_GE(window_rounds, 50u);
  EXPECT_NEAR(static_cast<double>(entries1 - entries0),
              2.0 * static_cast<double>(window_rounds), 2.0)
      << window_rounds << " rounds";
}

TEST_F(IntegrationTest, TransitionAccountingAcrossDeployments) {
  // EActors property: co-located actors => constant transitions; the
  // SDK-style ring => transitions per invocation. Verify the *relative*
  // claim the whole paper rests on.
  smc::SmcConfig config;
  config.parties = 4;
  config.dim = 1;

  smc::SdkSecureSum sdk(config);
  sgxsim::reset_transition_stats();
  for (int i = 0; i < 10; ++i) sdk.run_once();
  std::uint64_t sdk_ecalls = sgxsim::transition_stats().ecalls;
  EXPECT_EQ(sdk_ecalls, 10u * 5u);  // (K+1) per invocation

  core::RuntimeOptions options;
  options.pool_nodes = 256;
  options.node_payload_bytes = 1024;
  core::Runtime rt(options);
  smc::SmcDeployment dep = smc::install_secure_sum(rt, config);
  rt.start();
  // Warm-up.
  dep.requests->push(rt.public_pool().get());
  auto deadline = std::chrono::steady_clock::now() + 10s;
  concurrent::Node* warm = nullptr;
  while (warm == nullptr && std::chrono::steady_clock::now() < deadline) {
    warm = dep.results->pop();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_NE(warm, nullptr);
  concurrent::NodeLease(warm).reset();

  sgxsim::reset_transition_stats();
  for (int i = 0; i < 10; ++i) dep.requests->push(rt.public_pool().get());
  int received = 0;
  deadline = std::chrono::steady_clock::now() + 10s;
  while (received < 10 && std::chrono::steady_clock::now() < deadline) {
    if (concurrent::Node* node = dep.results->pop()) {
      concurrent::NodeLease lease(node);
      ++received;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  ASSERT_EQ(received, 10);
  EXPECT_EQ(sgxsim::transition_stats().ecalls, 0u);
  rt.stop();
}

}  // namespace
}  // namespace ea

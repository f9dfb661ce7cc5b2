#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/runtime.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/transition.hpp"
#include "smc/party_actor.hpp"
#include "smc/sdk_ring.hpp"
#include "smc/secure_sum.hpp"

namespace ea::smc {
namespace {

using namespace std::chrono_literals;

class SmcTest : public ::testing::Test {
 protected:
  SmcTest() {
    sgxsim::cost_model().ecall_cycles = 100;
    sgxsim::cost_model().ocall_cycles = 100;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
  }
  sgxsim::ScopedCostModel scoped_;
};

TEST_F(SmcTest, SerializeRoundTrip) {
  Vec v = {0, 1, 0xffffffffu, 12345};
  Vec w = deserialize(serialize(v));
  EXPECT_EQ(v, w);
}

TEST_F(SmcTest, AddSubInverse) {
  Vec a = {1, 2, 0xffffffffu};
  Vec b = {5, 7, 11};
  Vec c = a;
  add_in_place(c, b);
  sub_in_place(c, b);
  EXPECT_EQ(c, a);
}

TEST_F(SmcTest, UpdateSecretDeterministicAndChanging) {
  Vec a = {1, 2, 3};
  Vec b = a;
  update_secret(a);
  update_secret(b);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, (Vec{1, 2, 3}));
}

TEST_F(SmcTest, SdkRingComputesCorrectSum) {
  // At 2 parties both links join the same enclave pair.
  for (int parties : {3, 2}) {
    SmcConfig config;
    config.parties = parties;
    config.dim = 16;
    SdkSecureSum smc(config);
    Vec expected = smc.expected_sum();
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(smc.run_once(), expected)
          << parties << " parties, round " << round;
    }
  }
}

TEST_F(SmcTest, SdkRingManyPartiesLargeVector) {
  SmcConfig config;
  config.parties = 8;
  config.dim = 1000;
  SdkSecureSum smc(config);
  EXPECT_EQ(smc.run_once(), smc.expected_sum());
}

TEST_F(SmcTest, SdkRingRepeatedInvocationsStable) {
  SmcConfig config;
  config.parties = 4;
  config.dim = 8;
  SdkSecureSum smc(config);
  Vec expected = smc.expected_sum();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(smc.run_once(), expected);
  }
}

TEST_F(SmcTest, SdkRingDynamicUpdatesSecrets) {
  SmcConfig config;
  config.parties = 3;
  config.dim = 4;
  config.dynamic = true;
  SdkSecureSum smc(config);
  Vec first_expected = smc.expected_sum();
  Vec first = smc.run_once();
  EXPECT_EQ(first, first_expected);
  // After the dynamic update, the next sum differs.
  Vec second_expected = smc.expected_sum();
  EXPECT_NE(second_expected, first_expected);
  EXPECT_EQ(smc.run_once(), second_expected);
}

TEST_F(SmcTest, SdkRingChargesTransitionsPerHop) {
  SmcConfig config;
  config.parties = 5;
  config.dim = 1;
  SdkSecureSum smc(config);
  sgxsim::reset_transition_stats();
  smc.run_once();
  // K+1 ecalls per invocation (one per hop plus the final unmask).
  EXPECT_EQ(sgxsim::transition_stats().ecalls, 6u);
}

// The EActors deployment, driven through a real runtime.
TEST_F(SmcTest, EActorsRingComputesCorrectSum) {
  // At 2 parties both channels join the same enclave pair.
  for (int parties : {3, 2}) {
    SmcConfig config;
    config.parties = parties;
    config.dim = 16;

    core::RuntimeOptions options;
    options.pool_nodes = 256;
    options.node_payload_bytes = 4096;
    core::Runtime rt(options);
    SmcDeployment deployment = install_secure_sum(rt, config);
    rt.start();

    // Ground truth: the same deterministic secrets the actors initialise.
    SdkSecureSum reference(config);
    Vec expected = reference.expected_sum();

    // Issue 5 invocations.
    for (int i = 0; i < 5; ++i) {
      concurrent::Node* req = rt.public_pool().get();
      ASSERT_NE(req, nullptr);
      deployment.requests->push(req);
    }
    std::vector<Vec> results;
    auto deadline = std::chrono::steady_clock::now() + 10s;
    while (results.size() < 5 && std::chrono::steady_clock::now() < deadline) {
      if (concurrent::Node* node = deployment.results->pop()) {
        concurrent::NodeLease lease(node);
        results.push_back(deserialize(node->data()));
      } else {
        std::this_thread::sleep_for(1ms);
      }
    }
    rt.stop();
    ASSERT_EQ(results.size(), 5u) << parties << " parties";
    for (const Vec& sum : results) EXPECT_EQ(sum, expected) << parties;
  }
}

TEST_F(SmcTest, EActorsRingDynamicMatchesSdkSequence) {
  SmcConfig config;
  config.parties = 3;
  config.dim = 8;
  config.dynamic = true;

  // Reference sequence from the SDK implementation.
  std::vector<Vec> expected;
  {
    SdkSecureSum reference(config);
    for (int i = 0; i < 3; ++i) expected.push_back(reference.run_once());
  }

  core::RuntimeOptions options;
  options.pool_nodes = 256;
  options.node_payload_bytes = 4096;
  core::Runtime rt(options);
  SmcDeployment deployment = install_secure_sum(rt, config);
  rt.start();
  for (int i = 0; i < 3; ++i) {
    concurrent::Node* req = rt.public_pool().get();
    ASSERT_NE(req, nullptr);
    deployment.requests->push(req);
  }
  std::vector<Vec> results;
  auto deadline = std::chrono::steady_clock::now() + 10s;
  while (results.size() < 3 && std::chrono::steady_clock::now() < deadline) {
    if (concurrent::Node* node = deployment.results->pop()) {
      concurrent::NodeLease lease(node);
      results.push_back(deserialize(node->data()));
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  rt.stop();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results, expected);
}

TEST_F(SmcTest, EActorsSteadyStateAvoidsTransitions) {
  SmcConfig config;
  config.parties = 3;
  config.dim = 4;

  core::RuntimeOptions options;
  options.pool_nodes = 256;
  options.node_payload_bytes = 4096;
  core::Runtime rt(options);
  SmcDeployment deployment = install_secure_sum(rt, config);
  rt.start();
  // Warm up one round so every worker has entered its enclave.
  concurrent::Node* req = rt.public_pool().get();
  deployment.requests->push(req);
  auto deadline = std::chrono::steady_clock::now() + 10s;
  concurrent::Node* result = nullptr;
  while (result == nullptr && std::chrono::steady_clock::now() < deadline) {
    result = deployment.results->pop();
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_NE(result, nullptr);
  concurrent::NodeLease(result).reset();

  // Steady state: many rounds, no new transitions, and one payload copy
  // per hop — each party seals the node it received.
  auto copies = [&rt] {
    std::uint64_t n = 0;
    for (const auto& [name, ch] : rt.channels()) n += ch->payload_copies();
    return n;
  };
  const std::uint64_t copies_before = copies();
  sgxsim::reset_transition_stats();
  for (int i = 0; i < 10; ++i) {
    deployment.requests->push(rt.public_pool().get());
  }
  int received = 0;
  deadline = std::chrono::steady_clock::now() + 10s;
  while (received < 10 && std::chrono::steady_clock::now() < deadline) {
    if (concurrent::Node* node = deployment.results->pop()) {
      concurrent::NodeLease lease(node);
      ++received;
    } else {
      std::this_thread::sleep_for(1ms);
    }
  }
  ASSERT_EQ(received, 10);
  EXPECT_EQ(sgxsim::transition_stats().ecalls, 0u);
  EXPECT_EQ(copies() - copies_before, 10u * 3u);
  rt.stop();
}

TEST_F(SmcTest, IntermediateMessagesAreMasked) {
  // The wire value after party 0 must not equal the secret itself: it is
  // masked by Rnd. (With the trusted RNG stubbed cheap but still random.)
  SmcConfig config;
  config.parties = 2;
  config.dim = 4;
  SdkSecureSum smc(config);
  // Run and confirm determinism of the *result* while the mask varies —
  // two runs produce the same sum (correctness) though Rnd differs.
  Vec a = smc.run_once();
  Vec b = smc.run_once();
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace ea::smc

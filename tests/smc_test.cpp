#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>

#include "core/runtime.hpp"
#include "net/actors.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/transition.hpp"
#include "sgxsim/trusted_rng.hpp"
#include "smc/party_actor.hpp"
#include "smc/sdk_ring.hpp"
#include "smc/secure_sum.hpp"

namespace ea::smc {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Element-wise sum of the parties' initial secrets: every sum of a static
// ring, and the first sum of a dynamic one.
Vec initial_sum(const SmcConfig& config) {
  Vec sum(config.dim, 0);
  for (int i = 0; i < config.parties; ++i) {
    add_in_place(sum, initial_secret(i, config.dim));
  }
  return sum;
}

// Bytes [c * kChunkBytes, (c + 1) * kChunkBytes) of a mask: the part one
// draw_some() call draws.
std::span<const std::uint8_t> chunk(const Vec& mask, std::size_t c) {
  const std::span<const std::uint8_t> all(
      reinterpret_cast<const std::uint8_t*>(mask.data()),
      mask.size() * sizeof(Element));
  const std::size_t begin = c * MaskAhead::kChunkBytes;
  return all.subspan(begin,
                     std::min(MaskAhead::kChunkBytes, all.size() - begin));
}

bool same_chunk(const Vec& a, const Vec& b, std::size_t c) {
  const std::span<const std::uint8_t> x = chunk(a, c);
  const std::span<const std::uint8_t> y = chunk(b, c);
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

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

// --- party 0's mask source ---------------------------------------------------

TEST_F(SmcTest, MaskAheadDrawsTheNextMaskInChunksAndStops) {
  static_assert(MaskAhead::kChunkBytes == 512);
  MaskAhead mask(1000);  // 4,000 bytes: 7 chunks of 512 and one of 416
  for (int c = 0; c < 8; ++c) EXPECT_TRUE(mask.draw_some()) << "chunk " << c;
  EXPECT_FALSE(mask.draw_some()) << "a ninth chunk was drawn";
  EXPECT_FALSE(mask.draw_some()) << "drew past the next mask";
  mask.take();
  EXPECT_TRUE(mask.draw_some()) << "take() did not start the next mask";
}

TEST_F(SmcTest, MaskAheadTakeCompletesAPartlyDrawnMask) {
  constexpr std::size_t kChunks = 8;  // dim 1,000
  MaskAhead mask(1000);
  const Vec first = mask.take();
  const Vec second = mask.take();
  for (int c = 0; c < 3; ++c) ASSERT_TRUE(mask.draw_some());
  const Vec third = mask.take();
  // An undrawn chunk would still hold zeros or the bytes of an earlier
  // mask (take() recycles the buffer of the mask before).
  const Vec zeros(1000, 0);
  for (std::size_t c = 0; c < kChunks; ++c) {
    EXPECT_FALSE(same_chunk(third, zeros, c)) << "chunk " << c;
    EXPECT_FALSE(same_chunk(third, first, c)) << "chunk " << c;
    EXPECT_FALSE(same_chunk(third, second, c)) << "chunk " << c;
  }
  EXPECT_EQ(mask.current(), third);
}

TEST_F(SmcTest, MaskAheadConsecutiveTakesDiffer) {
  MaskAhead mask(1000);
  const Vec a = mask.take();
  const Vec b = mask.take();
  EXPECT_NE(a, b);
}

TEST_F(SmcTest, MaskIsDrawnOffTheRequestPath) {
  // Calibrate the trusted RNG so one dim-1,000 mask burns about 40 ms.
  constexpr std::size_t kDim = 1000;
  constexpr double kDrawMs = 40.0;
  constexpr std::uint64_t kProbeCyclesPerByte = 1000;
  std::vector<std::uint8_t> probe(kDim * sizeof(Element));
  sgxsim::trusted_read_rand(probe);  // seeds the generator, at no cost
  sgxsim::cost_model().rng_cycles_per_byte = kProbeCyclesPerByte;
  const Clock::time_point probe_start = Clock::now();
  sgxsim::trusted_read_rand(probe);
  const double probe_ms = ms_since(probe_start);
  sgxsim::cost_model().rng_cycles_per_byte = static_cast<std::uint64_t>(
      static_cast<double>(kProbeCyclesPerByte) * kDrawMs / probe_ms);

  SmcConfig config;
  config.parties = 3;
  config.dim = kDim;
  core::RuntimeOptions options;
  options.pool_nodes = 64;
  options.node_payload_bytes = kDim * sizeof(Element) + 64;
  core::Runtime rt(options);
  SmcDeployment deployment = install_secure_sum(rt, config);
  rt.start();
  // An idle ring: party 0 draws the first mask meanwhile.
  std::this_thread::sleep_for(200ms);

  const Clock::time_point sent = Clock::now();
  deployment.requests->push(rt.public_pool().get());
  concurrent::Node* result = nullptr;
  while ((result = deployment.results->pop()) == nullptr &&
         Clock::now() - sent < 10s) {
    std::this_thread::yield();
  }
  const double answered_ms = ms_since(sent);
  rt.stop();
  ASSERT_NE(result, nullptr);
  concurrent::NodeLease lease(result);
  EXPECT_EQ(deserialize(lease->data()), initial_sum(config));
  EXPECT_LT(answered_ms, kDrawMs / 2)
      << "the request waited for its mask to be drawn";
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

// Party 0 takes the returning token before it serves a queued request,
// so the quantum that finishes a round also starts the next: on a worker
// party 0 shares, the next round does not wait for its next turn.
TEST_F(SmcTest, PartyZeroFinishesARoundAndStartsTheNextInOneQuantum) {
  SmcConfig config;
  config.parties = 3;
  config.dim = 8;
  core::Runtime rt;
  SmcDeployment deployment = install_secure_sum(rt, config);
  for (const auto& actor : rt.actors()) {
    core::run_in_placement(*actor, [&] { actor->construct(rt); });
  }
  auto quantum = [&](const char* name) {
    core::Actor& party = *rt.find_actor(name);
    core::run_in_placement(party, [&] { core::invoke_contained(party); });
  };
  const concurrent::Mbox& departures =
      rt.channels().at("smc.ring.0")->departures(0);  // party 0's sends
  for (int r = 0; r < 2; ++r) {
    concurrent::Node* request = rt.public_pool().get();
    ASSERT_NE(request, nullptr);
    request->size = 0;
    deployment.requests->push(request);
  }

  quantum("smc.p0");  // round 1 starts; round 2's request stays queued
  ASSERT_EQ(departures.size(), 1u);
  quantum("smc.p1");
  quantum("smc.p2");
  ASSERT_TRUE(deployment.results->empty());
  quantum("smc.p0");  // the token is back
  EXPECT_EQ(deployment.results->size(), 1u) << "round 1 did not finish";
  EXPECT_EQ(departures.size(), 1u)
      << "round 2 waited for party 0's next quantum";

  quantum("smc.p1");
  quantum("smc.p2");
  quantum("smc.p0");
  ASSERT_EQ(deployment.results->size(), 2u);
  for (int r = 0; r < 2; ++r) {
    concurrent::NodeLease result(deployment.results->pop());
    EXPECT_EQ(deserialize(result->data()), initial_sum(config)) << r;
  }
}

// On 4 CPUs the TCP ring declares the net actors' group and one group per
// party, and the parties get three workers: one each at 3 parties, and the
// two spare CPUs at 8.
TEST(PlacementTest, TcpRingPartiesGetThreeOfFourCpus) {
  for (int parties : {3, 8}) {
    core::Runtime rt;
    net::NetSubsystem net = net::install_networking(rt, "net.sys");
    SmcConfig config;
    config.parties = parties;
    config.dim = 8;
    install_net_ring(rt, config, net);
    std::size_t party_workers = 0;
    for (const core::PlacedWorker& w : core::place_groups(rt.groups(), 4)) {
      if (std::all_of(w.actors.begin(), w.actors.end(),
                      [](const std::string& actor) {
                        return actor.rfind("smc.net.p", 0) == 0;
                      })) {
        ++party_workers;
      }
    }
    EXPECT_EQ(party_workers, 3u) << parties << " parties";
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

// Drives `requests` invocations through an EActors ring the way
// bench/smc_harness.hpp does — up to 4 in flight, injected as one chain —
// and returns the sums in the order they arrived.
std::vector<Vec> run_four_in_flight(const SmcConfig& config,
                                    std::size_t requests) {
  core::RuntimeOptions options;
  options.pool_nodes = 128;
  options.node_payload_bytes = config.dim * sizeof(Element) + 64;
  core::Runtime rt(options);
  SmcDeployment deployment = install_secure_sum(rt, config);
  rt.start();
  std::vector<Vec> sums;
  std::size_t issued = 0;
  const Clock::time_point deadline = Clock::now() + 30s;
  while (sums.size() < requests && Clock::now() < deadline) {
    concurrent::ChainBuilder chain;
    while (issued < requests && issued - sums.size() < 4) {
      chain.append(rt.public_pool().get());
      ++issued;
    }
    chain.flush_into(*deployment.requests);
    if (concurrent::Node* node = deployment.results->pop()) {
      concurrent::NodeLease lease(node);
      sums.push_back(deserialize(node->data()));
    } else {
      std::this_thread::yield();
    }
  }
  rt.stop();
  return sums;
}

TEST_F(SmcTest, EActorsRingMatchesSdkWithFourInFlight) {
  // Dim 1,000 spans 8 mask chunks. 8 parties run under the default
  // placement, which packs them onto at most one worker per CPU.
  for (int parties : {3, 8}) {
    for (bool dynamic : {false, true}) {
      SmcConfig config;
      config.parties = parties;
      config.dim = 1000;
      config.dynamic = dynamic;
      std::vector<Vec> expected;
      SdkSecureSum reference(config);
      for (int i = 0; i < 20; ++i) expected.push_back(reference.run_once());
      EXPECT_EQ(run_four_in_flight(config, 20), expected)
          << parties << " parties, " << (dynamic ? "dynamic" : "static");
    }
  }
}

// Party 1 of a 2-party ring that keeps a copy of every token it receives
// from party 0 — secret + mask — before it adds its own secret.
class TokenSpy : public core::Actor {
 public:
  TokenSpy(std::string name, SmcConfig config)
      : core::Actor(std::move(name)), config_(config) {}

  void construct(core::Runtime& /*rt*/) override {
    secret_ = initial_secret(1, config_.dim);
    out_ = connect("smc.ring.1");
    in_ = connect("smc.ring.0");
  }

  bool body() override {
    concurrent::NodeLease token = in_->recv();
    if (!token) return false;
    tokens.push_back(deserialize(token->data()));
    add_to_bytes(token->payload(), secret_);
    out_->send_node(std::move(token));
    return true;
  }

  std::vector<Vec> tokens;  // written by the spy's worker only

 private:
  SmcConfig config_;
  Vec secret_;
  core::ChannelEnd* out_ = nullptr;
  core::ChannelEnd* in_ = nullptr;
};

TEST_F(SmcTest, IntermediateMessagesAreMasked) {
  // What party 0 sends is its secret plus a fresh mask: it equals neither
  // the secret nor the token of the round before.
  SmcConfig config;
  config.parties = 2;
  config.dim = 16;
  core::RuntimeOptions options;
  options.pool_nodes = 64;
  options.node_payload_bytes = 4096;
  core::Runtime rt(options);
  auto mboxes_holder = std::make_unique<DriverMboxes>("smc.driver-mboxes");
  DriverMboxes* mboxes = mboxes_holder.get();
  rt.add_actor(std::move(mboxes_holder));
  rt.add_actor(std::make_unique<PartyActor>("smc.p0", 0, config,
                                            &mboxes->requests,
                                            &mboxes->results),
               "smc.e0");
  auto spy_holder = std::make_unique<TokenSpy>("smc.p1", config);
  TokenSpy* spy = spy_holder.get();
  rt.add_actor(std::move(spy_holder), "smc.e1");
  rt.add_group({"smc.w0", "smc.party", {"smc.p0"}});
  rt.add_group({"smc.w1", "smc.party", {"smc.p1"}});
  rt.start();

  std::vector<Vec> sums;
  for (int round = 0; round < 2; ++round) {
    mboxes->requests.push(rt.public_pool().get());
    const Clock::time_point deadline = Clock::now() + 10s;
    concurrent::Node* node = nullptr;
    while ((node = mboxes->results.pop()) == nullptr &&
           Clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    ASSERT_NE(node, nullptr) << "round " << round;
    concurrent::NodeLease lease(node);
    sums.push_back(deserialize(node->data()));
  }
  rt.stop();

  const Vec secret0 = initial_secret(0, config.dim);
  ASSERT_EQ(spy->tokens.size(), 2u);
  EXPECT_NE(spy->tokens[0], secret0) << "round 0 sent the bare secret";
  EXPECT_NE(spy->tokens[1], secret0) << "round 1 sent the bare secret";
  EXPECT_NE(spy->tokens[1], spy->tokens[0]) << "the mask was reused";
  // Both rounds still unmask to the same sum.
  for (const Vec& sum : sums) EXPECT_EQ(sum, initial_sum(config));
}

}  // namespace
}  // namespace ea::smc

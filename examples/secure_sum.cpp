// Secure multi-party computation (paper §5.2): five parties, each confined
// to its own enclave, compute the sum of their secret vectors without any
// party (or the untrusted runtime) learning another party's input. Shows
// both deployments the paper compares:
//   * the EActors ring (one enclaved party eactor per worker, encrypted
//     channels, zero steady-state transitions), and
//   * the SGX-SDK-style ring (one thread entering/leaving one enclave
//     after another — 2 transitions per hop).
//
// Build & run:  ./build/examples/secure_sum
#include <cstdio>
#include <string>
#include <thread>

#include "core/runtime.hpp"
#include "sgxsim/transition.hpp"
#include "smc/party_actor.hpp"
#include "smc/sdk_ring.hpp"

using namespace ea;

int main() {
  smc::SmcConfig config;
  config.parties = 5;
  config.dim = 8;

  // --- SDK-style deployment ------------------------------------------------
  smc::SdkSecureSum sdk(config);
  smc::Vec expected = sdk.expected_sum();
  sgxsim::reset_transition_stats();
  smc::Vec sdk_sum = sdk.run_once();
  auto sdk_stats = sgxsim::transition_stats();
  std::printf("SDK-style ring: 1 invocation cost %llu ecalls\n",
              static_cast<unsigned long long>(sdk_stats.ecalls));

  // --- EActors deployment ----------------------------------------------------
  core::RuntimeOptions options;
  options.pool_nodes = 256;
  options.node_payload_bytes = 1024;
  core::Runtime rt(options);
  smc::SmcDeployment dep = smc::install_secure_sum(rt, config);
  // The paper's deployment: one worker per party, so no worker ever enters
  // a second enclave. Left to the placement rule, five parties would share
  // at most one worker per CPU, and a worker hosting two parties crosses
  // an enclave boundary every round (DESIGN.md §14 "Placement").
  for (int i = 0; i < config.parties; ++i) {
    std::string worker = "smc.w";
    std::string party = "smc.p";
    worker += std::to_string(i);
    party += std::to_string(i);
    rt.add_worker(worker, {i}, {party});
  }
  rt.start();

  // Warm-up (workers enter their enclaves), then measure steady state.
  dep.requests->push(rt.public_pool().get());
  smc::Vec ea_sum;
  while (true) {
    if (concurrent::Node* node = dep.results->pop()) {
      concurrent::NodeLease lease(node);
      ea_sum = smc::deserialize(node->data());
      break;
    }
    std::this_thread::yield();
  }
  sgxsim::reset_transition_stats();
  for (int i = 0; i < 100; ++i) {
    dep.requests->push(rt.public_pool().get());
  }
  int received = 0;
  while (received < 100) {
    if (concurrent::Node* node = dep.results->pop()) {
      concurrent::NodeLease lease(node);
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  auto ea_stats = sgxsim::transition_stats();
  rt.stop();

  std::printf("EActors ring:   100 invocations cost %llu ecalls "
              "(workers never leave their enclaves)\n",
              static_cast<unsigned long long>(ea_stats.ecalls));

  bool correct = sdk_sum == expected && ea_sum == expected;
  std::printf("both deployments computed the correct sum: %s\n",
              correct ? "yes" : "NO (bug!)");
  std::printf("first elements: expected=%u sdk=%u eactors=%u\n", expected[0],
              sdk_sum[0], ea_sum[0]);
  return correct && ea_stats.ecalls == 0 ? 0 : 1;
}

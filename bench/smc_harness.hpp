// Shared harness for the secure-sum benchmarks (Figures 12 and 13).
//
// EC = SGX-SDK-style single-thread ring (smc::SdkSecureSum);
// EA = EActors ring (smc::install_secure_sum), one enclaved party per worker
// pinned to CPU i, as the paper deploys it.
// Throughput is reported in 10^3 requests/second, matching the paper's
// y-axes. A point runs its request count and for at least EA_BENCH_SECONDS
// (bench::Window). A figure is only as good as its sums: both rings check
// every sum of static secrets and the first sum of dynamic ones, and a
// wrong sum ends the bench with exit status 1.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench/common.hpp"
#include "core/runtime.hpp"
#include "sgxsim/enclave.hpp"
#include "smc/party_actor.hpp"
#include "smc/sdk_ring.hpp"

namespace ea::bench {

[[noreturn]] inline void wrong_sum(const char* ring,
                                   const smc::SmcConfig& config) {
  note("FAIL: %s ring returned a wrong sum (%d parties, dim %zu%s)", ring,
       config.parties, config.dim, config.dynamic ? ", dynamic" : "");
  std::exit(1);
}

inline double run_smc_sdk(const smc::SmcConfig& config,
                          std::uint64_t requests) {
  smc::SdkSecureSum smc(config);
  const smc::Vec expected = smc.expected_sum();
  Window window(requests);
  std::uint64_t done = 0;
  for (; window.more(done); ++done) {
    const smc::Vec sum = smc.run_once();
    if ((done == 0 || !config.dynamic) && sum != expected) {
      wrong_sum("EC", config);
    }
  }
  return window.krate(done);
}

inline double run_smc_ea(const smc::SmcConfig& config,
                         std::uint64_t requests) {
  core::RuntimeOptions options;
  options.pool_nodes = 128;
  options.node_payload_bytes = config.dim * sizeof(smc::Element) + 64;
  if (options.node_payload_bytes < 256) options.node_payload_bytes = 256;
  core::Runtime rt(options);
  smc::SmcDeployment deployment = smc::install_secure_sum(rt, config);
  // Explicit workers override the packed default: a worker hosting parties
  // of two enclaves pays two transitions every round (EXPERIMENTS.md).
  for (int i = 0; i < config.parties; ++i) {
    std::string worker = "smc.w";
    std::string party = "smc.p";
    worker += std::to_string(i);
    party += std::to_string(i);
    rt.add_worker(worker, {i}, {party});
  }
  rt.start();

  // The sum of the initial secrets: the warm-up's, and every later one
  // when the secrets are static.
  smc::Vec initial(config.dim, 0);
  for (int i = 0; i < config.parties; ++i) {
    smc::add_in_place(initial, smc::initial_secret(i, config.dim));
  }
  const util::Bytes expected = smc::serialize(initial);
  bool wrong = false;
  auto check = [&](const concurrent::Node& result) {
    const std::span<const std::uint8_t> got = result.data();
    wrong |= !std::equal(got.begin(), got.end(), expected.begin(),
                         expected.end());
  };

  // Warm-up round: every worker enters its enclave, attestation completes.
  deployment.requests->push(rt.public_pool().get());
  while (true) {
    if (concurrent::Node* node = deployment.results->pop()) {
      concurrent::NodeLease lease(node);
      check(*node);
      break;
    }
    std::this_thread::yield();
  }

  Window window(requests);
  std::uint64_t issued = 0, received = 0;
  // Keep a small number of requests in flight (the paper issues
  // invocations back-to-back). Requests are injected as one chain and
  // results drained as one burst — a single mbox lock acquisition each way.
  while (window.more(issued) || received < issued) {
    concurrent::ChainBuilder chain;
    while (issued - received < 4 && window.more(issued)) {
      concurrent::Node* req = rt.public_pool().get();
      if (req == nullptr) break;
      chain.append(req);
      ++issued;
    }
    chain.flush_into(*deployment.requests);
    concurrent::Node* burst[8];
    std::size_t got = deployment.results->pop_burst(burst, 8);
    if (got != 0) {
      for (std::size_t i = 0; i < got; ++i) {
        concurrent::NodeLease lease(burst[i]);
        if (!config.dynamic) check(*burst[i]);
      }
      received += got;
    } else {
      std::this_thread::yield();
    }
  }
  const double krate = window.krate(received);
  rt.stop();
  if (wrong) wrong_sum("EA", config);
  return krate;
}

// Frees the enclaves a finished deployment registered so EPC accounting
// does not leak across benchmark points.
inline void reset_enclaves() {
  sgxsim::EnclaveManager::instance().reset_for_testing();
}

}  // namespace ea::bench

// Shared harness for the secure-sum benchmarks (Figures 12 and 13).
//
// EC = SGX-SDK-style single-thread ring (smc::SdkSecureSum);
// EA = EActors ring (smc::install_secure_sum), one enclaved party per worker
// pinned to CPU i, as the paper deploys it.
// Throughput is reported in 10^3 requests/second, matching the paper's
// y-axes.
#pragma once

#include <string>
#include <thread>

#include "bench/common.hpp"
#include "core/runtime.hpp"
#include "sgxsim/enclave.hpp"
#include "smc/party_actor.hpp"
#include "smc/sdk_ring.hpp"

namespace ea::bench {

inline double run_smc_sdk(const smc::SmcConfig& config,
                          std::uint64_t requests) {
  smc::SdkSecureSum smc(config);
  Timer timer;
  for (std::uint64_t i = 0; i < requests; ++i) {
    smc.run_once();
  }
  return static_cast<double>(requests) / timer.seconds() / 1000.0;
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

  // Warm-up round: every worker enters its enclave, attestation completes.
  deployment.requests->push(rt.public_pool().get());
  while (true) {
    if (concurrent::Node* node = deployment.results->pop()) {
      concurrent::NodeLease lease(node);
      break;
    }
    std::this_thread::yield();
  }

  Timer timer;
  std::uint64_t issued = 0, received = 0;
  // Keep a small number of requests in flight (the paper issues
  // invocations back-to-back). Requests are injected as one chain and
  // results drained as one burst — a single mbox lock acquisition each way.
  while (received < requests) {
    concurrent::ChainBuilder chain;
    while (issued < requests && issued - received < 4) {
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
      }
      received += got;
    } else {
      std::this_thread::yield();
    }
  }
  double secs = timer.seconds();
  rt.stop();
  return static_cast<double>(requests) / secs / 1000.0;
}

// Frees the enclaves a finished deployment registered so EPC accounting
// does not leak across benchmark points.
inline void reset_enclaves() {
  sgxsim::EnclaveManager::instance().reset_for_testing();
}

}  // namespace ea::bench

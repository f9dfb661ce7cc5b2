// Ablation: co-located enclaves vs the classic distributed deployment of
// the secure-sum protocol (paper §5.2's motivation: "Usually the protocol
// targets a distributed setting where the individual participants exchange
// messages over the network. With the support of trusted execution all
// participants can be represented by enclaves that are co-located on a
// single machine. This way costly network-based communication between the
// participants can be avoided.").
//
// Three deployments of the identical protocol:
//   TCP      — the runtime's networked ring (smc::install_net_ring): the
//              EActors ring's own party eactors, in their enclaves, on the
//              workers Runtime::start() places them on, every hop's sealed
//              channel carried over loopback TCP by a net::ChannelLink,
//              which dials its own connection, and the untrusted net
//              actors
//   EC       — co-located SDK-style ring (ecalls per hop, no network)
//   EA       — co-located EActors ring (no transitions, no network)
// Every point runs its request count and for at least EA_BENCH_SECONDS.
// Every TCP sum is checked against the parties' secrets; a wrong or missing
// sum fails the bench.
#include <algorithm>
#include <optional>
#include <thread>

#include "bench/smc_harness.hpp"
#include "net/actors.hpp"

using namespace ea;

namespace {

// Requests/s in 10^3, or nullopt when a round returned a wrong sum or
// none within the deadline.
std::optional<double> run_tcp(const smc::SmcConfig& config,
                              std::uint64_t requests) {
  core::RuntimeOptions options;
  options.pool_nodes = 1024;
  // One node carries a whole sealed hop frame (and the result vector).
  options.node_payload_bytes =
      std::max<std::size_t>(2048, config.dim * sizeof(smc::Element) + 256);
  core::Runtime rt(options);
  net::NetSubsystem net = net::install_networking(rt, "net.sys");
  smc::SmcDeployment dep = smc::install_net_ring(rt, config, net);
  rt.start();

  smc::Vec expected(config.dim, 0);
  for (int i = 0; i < config.parties; ++i) {
    smc::add_in_place(expected, smc::initial_secret(i, config.dim));
  }

  // Keeps up to 4 requests queued at party 0 (it runs one round at a time)
  // while `more(issued)`, and checks every result.
  std::uint64_t issued = 0, received = 0;
  auto run_rounds = [&](auto more) {
    bench::Timer since_result;
    while (more(issued) || received < issued) {
      while (issued - received < 4 && more(issued)) {
        concurrent::Node* req = rt.public_pool().get();
        if (req == nullptr) break;
        req->size = 0;
        dep.requests->push(req);
        ++issued;
      }
      concurrent::Node* node = dep.results->pop();
      if (node == nullptr) {
        if (since_result.seconds() > 30) return false;
        std::this_thread::yield();
        continue;
      }
      concurrent::NodeLease result(node);
      if (smc::deserialize(std::span<const std::uint8_t>(
              result->payload(), result->size)) != expected) {
        return false;
      }
      ++received;
      since_result = bench::Timer();
    }
    return true;
  };

  // Warm-up round: links dialled and accepted, every worker entered.
  bool ok = run_rounds([](std::uint64_t n) { return n < 1; });
  issued = received = 0;
  bench::Window window(requests);
  ok = ok && run_rounds([&](std::uint64_t n) { return window.more(n); });
  const double krate = window.krate(received);
  rt.stop();
  if (!ok) return std::nullopt;
  return krate;
}

}  // namespace

int main() {
  bench::csv_header();
  const std::uint64_t requests = bench::scaled(200);

  double tcp3 = 0, ea3 = 0;
  for (int parties : {3, 8}) {
    for (std::size_t dim : {std::size_t{10}, std::size_t{1000}}) {
      smc::SmcConfig config;
      config.parties = parties;
      config.dim = dim;
      std::string x = std::to_string(parties) + "p/" + std::to_string(dim);

      std::optional<double> tcp = run_tcp(config, requests);
      bench::reset_enclaves();
      if (!tcp.has_value()) {
        bench::note("FAIL: TCP ring %s returned a wrong or no sum",
                    x.c_str());
        return 1;
      }
      double ec = bench::run_smc_sdk(config, requests);
      bench::reset_enclaves();
      double ea = bench::run_smc_ea(config, requests);
      bench::reset_enclaves();

      bench::row("ablation-colocated", "TCP-" + x, parties, *tcp, "1e3req/s");
      bench::row("ablation-colocated", "EC-" + x, parties, ec, "1e3req/s");
      bench::row("ablation-colocated", "EA-" + x, parties, ea, "1e3req/s");
      if (parties == 3 && dim == 10) {
        tcp3 = *tcp;
        ea3 = ea;
      }
    }
  }
  bench::note("paper motivation (§5.2): co-location avoids costly network "
              "communication — EA/TCP at 3 parties, dim 10: %.1fx "
              "(loopback TCP through the runtime's net actors; a real "
              "network would widen this further)",
              ea3 / tcp3);
  return 0;
}

// Figure 14: XMPP one-to-one scalability — request throughput versus the
// number of concurrent clients for the two baselines (EJB = ejabberd-like,
// JBD2 = JabberD2-like) and three EActors deployments:
//   EA/3  = 1 XMPP instance  (XMPP + READER + WRITER eactors)
//   EA/6  = 2 instances
//   EA/48 = 16 instances
//
// Paper shape: EA/3 above JBD2 (up to 1.81x at steady state) and above EJB
// (2.42x at its plateau); adding instances scales further — EA/48 up to
// 40x over EJB. The client sweep is scaled down by default
// (EA_XMPP_MAX_CLIENTS, EA_BENCH_SECONDS control the size).
#include "bench/xmpp_harness.hpp"
#include "core/runtime.hpp"
#include "util/affinity.hpp"
#include "sgxsim/enclave.hpp"
#include "xmpp/baseline_server.hpp"
#include "xmpp/server.hpp"

using namespace ea;

namespace {

double run_ea(int instances, int clients, double seconds, int idle = 0) {
  core::RuntimeOptions options;
  options.pool_nodes = 8192;
  options.node_payload_bytes = 2048;
  core::Runtime rt(options);
  xmpp::XmppServiceConfig config;
  config.instances = instances;
  xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);
  rt.start();
  bench::IdleClients ballast;
  if (idle > 0 && ballast.connect(service.port, idle) < idle) {
    bench::note("idle ballast: only %zu/%d connected", ballast.size(), idle);
  }
  double tput = bench::xmpp_o2o_throughput(service.port, clients, seconds);
  rt.stop();
  sgxsim::EnclaveManager::instance().reset_for_testing();
  return tput;
}

double run_baseline(xmpp::BaselineFlavor flavor, int clients, double seconds) {
  xmpp::BaselineOptions options;
  options.flavor = flavor;
  xmpp::BaselineServer server(options);
  server.start();
  double tput = bench::xmpp_o2o_throughput(server.port(), clients, seconds);
  server.stop();
  return tput;
}

}  // namespace

int main() {
  bench::csv_header();
  const double seconds = bench::seconds_per_point();
  const int max_clients = static_cast<int>(
      util::env_int("EA_XMPP_MAX_CLIENTS", 32));

  std::vector<int> sweep;
  for (int c = 4; c <= max_clients; c *= 2) sweep.push_back(c);

  double best_ea48 = 0, best_ejb = 1e-9, best_jbd2 = 1e-9, best_ea3 = 0;
  for (int clients : sweep) {
    double ejb =
        run_baseline(xmpp::BaselineFlavor::kEjabberd, clients, seconds);
    bench::row("fig14", "EJB", clients, ejb, "req/s");
    double jbd2 =
        run_baseline(xmpp::BaselineFlavor::kJabberd2, clients, seconds);
    bench::row("fig14", "JBD2", clients, jbd2, "req/s");
    double ea3 = run_ea(1, clients, seconds);
    bench::row("fig14", "EA/3", clients, ea3, "req/s");
    double ea6 = run_ea(2, clients, seconds);
    bench::row("fig14", "EA/6", clients, ea6, "req/s");
    double ea48 = run_ea(16, clients, seconds);
    bench::row("fig14", "EA/48", clients, ea48, "req/s");

    // Connection-count column (EA_XMPP_IDLE_SWEEP=N): the same active
    // workload with N idle connections as ballast, which the READER's
    // epoll set should not charge for.
    if (const int idle = bench::idle_sweep_count(); idle > 0) {
      bench::row("fig14", "EA/3+" + std::to_string(idle) + "idle", clients,
                 run_ea(1, clients, seconds, idle), "req/s");
    }

    best_ejb = std::max(best_ejb, ejb);
    best_jbd2 = std::max(best_jbd2, jbd2);
    best_ea3 = std::max(best_ea3, ea3);
    best_ea48 = std::max(best_ea48, ea48);
  }
  bench::note("paper claims: EA/3 > JBD2 (here %.2fx), EA/48 > EJB "
              "(here %.1fx; paper up to 40x on 8 hardware threads — "
              "parallel headroom here: %d CPU(s))",
              best_ea3 / best_jbd2, best_ea48 / best_ejb,
              util::online_cpus());
  return 0;
}

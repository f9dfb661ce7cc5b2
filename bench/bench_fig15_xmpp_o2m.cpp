// Figure 15: group communication — throughput versus group size for a
// single group, comparing EJB, JBD2, EA with the XMPP eactor inside an
// enclave (EA/trusted) and outside (EA/untrusted).
//
// Paper shape: EA/trusted == EA/untrusted (trusted execution is free on
// this path) and both slightly outperform single-threaded JabberD2.
#include "bench/xmpp_harness.hpp"
#include "core/runtime.hpp"
#include "sgxsim/enclave.hpp"
#include "xmpp/baseline_server.hpp"
#include "xmpp/server.hpp"

using namespace ea;

namespace {

double run_ea(bool trusted, int participants, double seconds, int idle = 0) {
  core::RuntimeOptions options;
  options.pool_nodes = 8192;
  options.node_payload_bytes = 2048;
  core::Runtime rt(options);
  xmpp::XmppServiceConfig config;
  config.instances = 1;
  config.trusted = trusted;
  xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);
  rt.start();
  bench::IdleClients ballast;
  if (idle > 0 && ballast.connect(service.port, idle) < idle) {
    bench::note("idle ballast: only %zu/%d connected", ballast.size(), idle);
  }
  double tput = bench::xmpp_o2m_throughput(service.port, participants, seconds);
  rt.stop();
  sgxsim::EnclaveManager::instance().reset_for_testing();
  return tput;
}

double run_baseline(xmpp::BaselineFlavor flavor, int participants,
                    double seconds) {
  xmpp::BaselineOptions options;
  options.flavor = flavor;
  xmpp::BaselineServer server(options);
  server.start();
  double tput = bench::xmpp_o2m_throughput(server.port(), participants, seconds);
  server.stop();
  return tput;
}

}  // namespace

int main() {
  bench::csv_header();
  const double seconds = bench::seconds_per_point();
  const int max_participants =
      static_cast<int>(util::env_int("EA_XMPP_MAX_GROUP", 24));

  double trusted_sum = 0, untrusted_sum = 0;
  int points = 0;
  for (int participants = 6; participants <= max_participants;
       participants += 6) {
    double ejb = run_baseline(xmpp::BaselineFlavor::kEjabberd, participants,
                              seconds);
    bench::row("fig15", "EJB", participants, ejb, "req/s");
    double jbd2 = run_baseline(xmpp::BaselineFlavor::kJabberd2, participants,
                               seconds);
    bench::row("fig15", "JBD2", participants, jbd2, "req/s");
    double trusted = run_ea(/*trusted=*/true, participants, seconds);
    bench::row("fig15", "EA/trusted", participants, trusted, "req/s");
    double untrusted = run_ea(/*trusted=*/false, participants, seconds);
    bench::row("fig15", "EA/untrusted", participants, untrusted, "req/s");

    // Connection-count column (EA_XMPP_IDLE_SWEEP=N): the same group with N
    // idle connections as ballast, which the READER's epoll set should not
    // charge for.
    if (const int idle = bench::idle_sweep_count(); idle > 0) {
      bench::row("fig15", "EA/untrusted+" + std::to_string(idle) + "idle",
                 participants,
                 run_ea(/*trusted=*/false, participants, seconds, idle),
                 "req/s");
    }

    trusted_sum += trusted;
    untrusted_sum += untrusted;
    ++points;
  }
  bench::note("paper claim: EA/trusted ~= EA/untrusted (avg ratio here: "
              "%.2f; paper: 'exactly the same performance')",
              trusted_sum / untrusted_sum);

  // §6.4.2, first observation: "the throughput does not change when we
  // increase the number of groups" — each group has its own XMPP eactor
  // (instance) and works almost in isolation.
  double first_groups = 0, last_groups = 0;
  for (int groups : {1, 2, 4}) {
    core::RuntimeOptions options;
    options.pool_nodes = 8192;
    options.node_payload_bytes = 2048;
    core::Runtime rt(options);
    xmpp::XmppServiceConfig config;
    config.instances = groups;
    xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);
    rt.start();
    double tput = bench::xmpp_o2m_multi_group(service.port, groups,
                                              /*participants=*/6, seconds);
    rt.stop();
    sgxsim::EnclaveManager::instance().reset_for_testing();
    bench::row("fig15-groups", "EA aggregate", groups, tput, "req/s");
    bench::row("fig15-groups", "EA per-group", groups, tput / groups,
               "req/s");
    if (groups == 1) first_groups = tput;
    if (groups == 4) last_groups = tput;
  }
  bench::note("paper claim: groups work in isolation, so adding groups does "
              "not disturb throughput. With one CPU the *aggregate* stays "
              "flat (1-group vs 4-group aggregate ratio here: %.2f); the "
              "paper's per-group flatness additionally needs one hardware "
              "thread per group.",
              first_groups / last_groups);
  return 0;
}

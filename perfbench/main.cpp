// End-to-end benchmark of the EActors runtime (see WORKLOADS.md).
//
//   eabench --workload <smc_ring|xmpp_echo|kv_mixed|migrate> --seed <n>
//           --seconds <s> --trace <0|1> [--source <id>]
//   eabench --self-test
//
// Prints a human-readable report ("# " lines: host fingerprint, CPU pin
// map, input digest, the workload's own metrics with sample counts) and,
// as the last line, one JSON object with the keys correct, attempted,
// failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
// runs the workload untraced and then traced and reports the per-layer
// metrics, including the tracing overhead on the rate and the median.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Mirrors BENCHMARK.json's end_to_end list.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"ok_ratio", "ratio"},
    {"ops_per_s", "1/s"},
    {"latency_p50_us", "us"},
};

// Mirrors BENCHMARK.json's per_layer list. Metrics of a layer the
// workload does not run read 0.
constexpr MetricDef kPerLayer[] = {
    {"trace.overhead.ops_per_s", "1/s"},
    {"trace.overhead.latency_p50_us", "us"},
    {"tail.latency_p99_us", "us"},
    {"sgxsim.ecalls_per_op", "count"},
    {"sgxsim.ocalls_per_op", "count"},
    {"sgxsim.burned_cycles_per_op", "cycles"},
    {"core.worker.rounds_per_op", "count"},
    {"core.worker.sleeps_per_op", "count"},
    {"core.worker.steals_per_op", "count"},
    {"concurrent.pool.free_min", "count"},
    {"concurrent.pool.exhaustions", "count"},
    {"crypto.aead_seal_us", "us"},
    {"crypto.aead_open_us", "us"},
    {"sgxsim.trusted_rng_us", "us"},
    {"crypto.x25519_us", "us"},
    {"sgxsim.attested_exchange_ms", "ms"},
    {"sgxsim.seal_64k_us", "us"},
    {"smc.party_busy_us", "us"},
    {"smc.handoff_wait_us", "us"},
    {"smc.request_mean_us", "us"},
    {"core.channel.payload_copies_per_op", "count"},
    {"core.channel.auth_failures", "count"},
    {"core.channel.frame_errors", "count"},
    {"xmpp.client_send_us", "us"},
    {"xmpp.client_recv_us", "us"},
    {"xmpp.server_us", "us"},
    {"xmpp.routed_per_op", "count"},
    {"xmpp.app_rounds_per_op", "count"},
    {"net.rounds_per_op", "count"},
    {"net.dispatches_per_op", "count"},
    {"pos.get_p50_ns", "ns"},
    {"pos.get_p99_ns", "ns"},
    {"pos.set_p50_ns", "ns"},
    {"pos.set_p99_ns", "ns"},
    {"pos.erase_p50_ns", "ns"},
    {"pos.set_failed", "count"},
    {"pos.reclaim_hazards", "count"},
    {"pos.clean_step_us", "us"},
    {"pos.cleaner_useful_ratio", "ratio"},
    {"pos.freed_per_s", "1/s"},
    {"pos.outdated_peak", "count"},
    {"pos.retired_peak", "count"},
    {"pos.epoch_advances_per_s", "1/s"},
    {"core.migration.call_ms", "ms"},
    {"core.migration.carried_per_move", "count"},
    {"core.migration.rolled_back", "count"},
    {"core.migration.forks_prevented", "count"},
    {"migrate.echo_per_s", "1/s"},
};

struct Workload {
  const char* name;
  WorkloadResult (*run)(const RunConfig&);
};

constexpr Workload kWorkloads[] = {
    {"smc_ring", run_smc_ring},
    {"xmpp_echo", run_xmpp_echo},
    {"kv_mixed", run_kv_mixed},
    {"migrate", run_migrate},
};

// Ends the process if a run outlives its budget, so a hang inside the
// system under test cannot hold the benchmark forever.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds budget)
      : thread_([this, budget] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, budget, [this] { return done_; })) {
            static const char kMsg[] = "eabench: run exceeded its budget\n";
            [[maybe_unused]] ssize_t rc =
                ::write(STDERR_FILENO, kMsg, sizeof(kMsg) - 1);
            _exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // declared last: it uses the members above
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void line(const std::string& text) { std::printf("# %s\n", text.c_str()); }

// Host CPU time counters from /proc/stat: {busy+idle total, steal}. Steal
// is time the hypervisor ran someone else while this VM wanted the CPU; a
// run with much of it measured a busier host, not a slower program.
std::pair<std::uint64_t, std::uint64_t> cpu_times() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};
  in >> cpu;
  for (std::uint64_t& x : v) in >> x;
  std::uint64_t total = 0;
  for (std::uint64_t x : v) total += x;
  return {total, v[7]};
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_report(const char* label, const WorkloadResult& r) {
  line(std::string(label) + "pins: " + r.pin_map);
  line(std::string(label) + "inputs: digest=" + r.input_digest);
  std::string setups;
  for (double s : r.setup_s) {
    setups += ' ';
    setups += fmt(s);
  }
  line(std::string(label) + "setup_s samples:" + setups);
  for (const WorkloadResult::Named& n : r.named) {
    line(std::string(label) + n.name + " = " +
         (n.value ? fmt(*n.value) : std::string("unreported")) + " " + n.unit +
         " (n=" + std::to_string(n.samples) + ")");
  }
  line(std::string(label) + "fail_ratio = " + fmt(r.outcome.fail_ratio()) +
       " (" + std::to_string(r.outcome.failed) + "/" +
       std::to_string(r.outcome.attempted) + ", wrong outputs " +
       std::to_string(r.outcome.wrong) + ")");
  for (const std::string& note : r.notes) line(std::string(label) + note);
}

// The end-to-end metrics of one result; nullopt where the percentile rule
// or a failed setup left a value unreported.
std::map<std::string, std::optional<double>> end_to_end(const WorkloadResult& r) {
  std::map<std::string, std::optional<double>> m;
  // The set-up counterpart of the quiet tenth. A set-up is a chain of
  // hand-offs to idle workers, and each one the host delays makes it
  // slower, never faster: xmpp_echo's median set-up moved by 28% between
  // two sets of runs of the same code.
  m["setup_s"] = r.setup_s.empty()
                     ? std::nullopt
                     : std::optional<double>(lower_quartile(r.setup_s));
  m["ok_ratio"] = 1.0 - r.outcome.fail_ratio();
  m["ops_per_s"] = r.quiet.ops_per_s > 0
                      ? std::optional<double>(r.quiet.ops_per_s)
                      : std::nullopt;
  m["latency_p50_us"] = r.quiet.p50_us;
  return m;
}

int run(const Workload& w, const RunConfig& config, const std::string& source) {
  line(std::string("perfbench workload=") + w.name +
       " seed=" + std::to_string(config.seed) +
       " seconds=" + fmt(config.seconds) + " trace=" + (config.trace ? "1" : "0"));
  line("host: nproc=" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
       " cpu=\"" + cpu_model() + "\" source=" + source);

  RunConfig untraced = config;
  untraced.trace = false;
  untraced.rounds = config.trace ? 1 : kRounds;
  const auto [total0, steal0] = cpu_times();
  const WorkloadResult plain = w.run(untraced);
  const auto [total1, steal1] = cpu_times();
  print_report("", plain);
  line("host steal during the run: " +
       fmt(total1 == total0 ? 0.0
                            : 100.0 * static_cast<double>(steal1 - steal0) /
                                  static_cast<double>(total1 - total0)) +
       "% of CPU time");
  const auto plain_e2e = end_to_end(plain);

  Outcome outcome = plain.outcome;
  bool complete = true;
  std::vector<std::pair<std::string, double>> metrics;
  if (!config.trace) {
    for (const MetricDef& d : kEndToEnd) {
      const std::optional<double> v = plain_e2e.at(d.name);
      if (!v || !std::isfinite(*v)) {
        line(std::string("unreported metric: ") + d.name);
        complete = false;
      }
      metrics.emplace_back(d.name, v.value_or(0));
    }
  } else {
    RunConfig traced_config = config;
    traced_config.trace = true;
    WorkloadResult traced = w.run(traced_config);
    print_report("traced ", traced);
    outcome.merge(traced.outcome);
    const auto traced_e2e = end_to_end(traced);
    for (const char* name : {"ops_per_s", "latency_p50_us"}) {
      const auto a = plain_e2e.at(name);
      const auto b = traced_e2e.at(name);
      if (a && b) {
        traced.layer[std::string("trace.overhead.") + name] = *b - *a;
      } else {
        complete = false;
      }
    }
    if (plain.latency.p99_us) {
      traced.layer["tail.latency_p99_us"] = *plain.latency.p99_us;
    }
    run_layer_probes(traced.layer);
    if (traced.layer.count("smc.party_busy_us") != 0) {
      line("smc: party_busy_us + handoff_wait_us = " +
           fmt(traced.layer["smc.party_busy_us"] +
               traced.layer["smc.handoff_wait_us"]) +
           " us against mean request latency " +
           fmt(traced.layer["smc.request_mean_us"]) + " us");
    }
    if (traced.layer.count("core.migration.call_ms") != 0) {
      line("migrate: sgxsim.attested_exchange_ms = " +
           fmt(traced.layer["sgxsim.attested_exchange_ms"]) +
           " ms within core.migration.call_ms = " +
           fmt(traced.layer["core.migration.call_ms"]) + " ms");
    }
    for (const MetricDef& d : kPerLayer) {
      const auto it = traced.layer.find(d.name);
      const double v = it == traced.layer.end() ? 0.0 : it->second;
      line(std::string("layer ") + d.name + " = " + fmt(v) + " " + d.unit);
      metrics.emplace_back(d.name, std::isfinite(v) ? v : 0.0);
    }
  }

  const bool correct = outcome.wrong == 0 && complete;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  const MetricDef* defs = config.trace ? kPerLayer : kEndToEnd;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) json += ", ";
    json += "\"" + metrics[i].first + "\": {\"value\": " +
            fmt(metrics[i].second) + ", \"unit\": \"" + defs[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: eabench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--source ID]\n       eabench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  // Freed heap memory stays mapped, so a repeated set-up reuses the pages
  // of the one before it. With glibc's default trimming, the heap's layout
  // decided whether a set-up faulted its node pool in afresh (~10 ms for
  // xmpp_echo's 16 MiB) or not.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  std::string workload;
  std::string source = "unknown";
  RunConfig config;
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--self-test") {
      self_test = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--source" && has_value) {
      source = argv[++i];
    } else {
      return usage();
    }
  }
  if (self_test) {
    Watchdog watchdog(std::chrono::seconds(170));
    return run_self_test();
  }
  if (!(config.seconds > 0) || config.seconds > 60) return usage();
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      Watchdog watchdog(std::chrono::seconds(170));
      return run(w, config, source);
    }
  }
  return usage();
}

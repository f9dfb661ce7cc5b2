#include "bench.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

std::uint64_t self_time_ns(Span parent, std::vector<Span> children) {
  std::sort(children.begin(), children.end(),
            [](const Span& a, const Span& b) { return a.begin_ns < b.begin_ns; });
  std::uint64_t covered = 0;
  std::uint64_t cursor = parent.begin_ns;  // end of the covered prefix
  for (const Span& c : children) {
    const std::uint64_t b = std::max(c.begin_ns, cursor);
    const std::uint64_t e = std::min(c.end_ns, parent.end_ns);
    if (e > b) {
      covered += e - b;
      cursor = e;
    }
  }
  return parent.ns() - covered;
}

namespace {

// 1-based nearest rank of quantile q among n samples.
std::uint64_t nearest_rank(double q, std::uint64_t n) {
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::uint64_t>(rank, 1, n);
}

bool reportable(double q, std::uint64_t n) {
  return n != 0 && n - nearest_rank(q, n) >= kMinBeyond;
}

}  // namespace

std::uint64_t min_samples_for(double q) {
  std::uint64_t n = kMinBeyond + 1;
  while (!reportable(q, n)) ++n;
  return n;
}

std::optional<double> percentile(const std::vector<std::uint64_t>& sorted,
                                 double q) {
  if (!reportable(q, sorted.size())) return std::nullopt;
  return static_cast<double>(sorted[nearest_rank(q, sorted.size()) - 1]);
}

std::optional<double> percentile(const ea::util::LatencyHist& hist, double q) {
  if (!reportable(q, hist.count())) return std::nullopt;
  return static_cast<double>(hist.percentile(q));
}

Latency summarize_ns(std::vector<std::uint64_t>& samples) {
  std::sort(samples.begin(), samples.end());
  Latency l;
  l.count = samples.size();
  double sum = 0;
  for (std::uint64_t s : samples) sum += static_cast<double>(s);
  if (l.count != 0) l.mean_us = sum / static_cast<double>(l.count) * 1e-3;
  if (auto p = percentile(samples, 0.50)) l.p50_us = *p * 1e-3;
  if (auto p = percentile(samples, 0.99)) l.p99_us = *p * 1e-3;
  return l;
}

Quiet quiet_figures(std::vector<double> rates, std::vector<double> p50s) {
  Quiet q;
  std::sort(rates.begin(), rates.end());
  if (!rates.empty()) {
    q.ops_per_s = rates[static_cast<std::size_t>(
        (1.0 - kQuietShare) * static_cast<double>(rates.size() - 1))];
  }
  std::sort(p50s.begin(), p50s.end());
  if (p50s.size() >= 10) {
    q.p50_us = p50s[static_cast<std::size_t>(
        kQuietShare * static_cast<double>(p50s.size() - 1))];
  }
  return q;
}

Latency summarize_samples(const std::vector<Sample>& samples) {
  std::vector<std::uint64_t> ns;
  ns.reserve(samples.size());
  for (const Sample& s : samples) ns.push_back(s.latency_ns);
  return summarize_ns(ns);
}

Quiet quiet_samples(const std::vector<Sample>& samples,
                    const std::vector<Span>& windows, std::uint64_t slice_ns) {
  std::vector<double> rates;
  std::vector<double> p50s;
  std::size_t next = 0;
  for (const Span& window : windows) {
    const std::size_t n = std::max<std::size_t>(1, window.ns() / slice_ns);
    // A slice's rate is its completions over the time between its first and
    // last one, which does not round to whole operations per slice.
    std::vector<std::vector<Sample>> slices(n);
    for (; next < samples.size() && samples[next].end_ns <= window.end_ns;
         ++next) {
      const Sample& s = samples[next];
      const std::size_t i =
          (s.end_ns - std::min(s.end_ns, window.begin_ns)) / slice_ns;
      slices[std::min(i, n - 1)].push_back(s);
    }
    for (const std::vector<Sample>& slice : slices) {
      if (slice.size() < 2) continue;
      const std::uint64_t span = slice.back().end_ns - slice.front().end_ns;
      rates.push_back(static_cast<double>(slice.size() - 1) /
                      (static_cast<double>(span) * 1e-9));
      if (auto p = summarize_samples(slice).p50_us) p50s.push_back(*p);
    }
  }
  return quiet_figures(std::move(rates), std::move(p50s));
}

void pin_to_cpu(int cpu) {
  if (cpu < 0 || cpu >= static_cast<int>(std::thread::hardware_concurrency())) {
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

void Digest::add(std::span<const std::uint8_t> bytes) noexcept {
  for (std::uint8_t b : bytes) {
    h_ ^= b;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add_u64(std::uint64_t v) noexcept {
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
  add(le);
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return buf;
}

std::uint64_t process_voluntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw);
}

std::uint64_t thread_voluntary_switches() {
  rusage ru{};
  getrusage(RUSAGE_THREAD, &ru);
  return static_cast<std::uint64_t>(ru.ru_nvcsw);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double lower_quartile(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[(values.size() + 3) / 4 - 1];
}

Counters sample_counters(const ea::core::Runtime& rt) {
  Counters c;
  c.health = rt.health();
  c.transitions = ea::sgxsim::transition_stats();
  c.voluntary_switches = process_voluntary_switches();
  return c;
}

std::uint64_t worker_delta(const Counters& before, const Counters& after,
                           std::string_view worker,
                           std::uint64_t ea::core::WorkerHealth::*field) {
  const ea::core::WorkerHealth* a = before.health.worker(worker);
  const ea::core::WorkerHealth* b = after.health.worker(worker);
  if (a == nullptr || b == nullptr) return 0;
  return b->*field - a->*field;
}

void add_counter_layers(const Counters& before, const Counters& after,
                        std::uint64_t ops, std::uint64_t generator_switches,
                        std::map<std::string, double>& layer) {
  const double n = ops == 0 ? 1.0 : static_cast<double>(ops);
  auto per_op = [n](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a) / n;
  };
  layer["sgxsim.ecalls_per_op"] =
      per_op(before.transitions.ecalls, after.transitions.ecalls);
  layer["sgxsim.ocalls_per_op"] =
      per_op(before.transitions.ocalls, after.transitions.ocalls);
  layer["sgxsim.burned_cycles_per_op"] =
      per_op(before.transitions.cycles_burned, after.transitions.cycles_burned);
  std::uint64_t rounds = 0;
  std::uint64_t steals = 0;
  for (const ea::core::WorkerHealth& w : after.health.workers) {
    rounds += worker_delta(before, after, w.name,
                           &ea::core::WorkerHealth::rounds);
    steals += worker_delta(before, after, w.name,
                           &ea::core::WorkerHealth::steals);
  }
  layer["core.worker.rounds_per_op"] = static_cast<double>(rounds) / n;
  layer["core.worker.steals_per_op"] = static_cast<double>(steals) / n;
  const std::uint64_t switches =
      after.voluntary_switches - before.voluntary_switches;
  layer["core.worker.sleeps_per_op"] =
      static_cast<double>(switches > generator_switches
                              ? switches - generator_switches
                              : 0) /
      n;
  layer["concurrent.pool.exhaustions"] = static_cast<double>(
      after.health.pool.exhaustions - before.health.pool.exhaustions);
}

}  // namespace perfbench

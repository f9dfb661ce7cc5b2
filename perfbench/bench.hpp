// Shared measurement plumbing for the end-to-end benchmark: clocks, spans
// and span self-time, the percentile rule, failure accounting, CPU pinning,
// input digests and the per-workload result record.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/health.hpp"
#include "core/runtime.hpp"
#include "sgxsim/transition.hpp"
#include "util/latency_hist.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

// One timed interval on the steady clock.
struct Span {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t ns() const noexcept { return end_ns - begin_ns; }
};

// The part of `parent` that none of `children` covers. Children are clipped
// to the parent and overlapping children are counted once, so the result is
// the parent's own time however the children nest.
std::uint64_t self_time_ns(Span parent, std::vector<Span> children);

// Percentile rule: a quantile is reported only when at least kMinBeyond
// samples lie strictly beyond its nearest-rank position; otherwise the
// value would rest on fewer than ten observations.
inline constexpr std::uint64_t kMinBeyond = 10;

// Smallest sample count for which quantile q can be reported.
std::uint64_t min_samples_for(double q);

// Nearest-rank quantile of ascending `sorted`, or nullopt under the rule.
std::optional<double> percentile(const std::vector<std::uint64_t>& sorted,
                                 double q);
// The same rule over a histogram (value is the bucket's upper bound).
std::optional<double> percentile(const ea::util::LatencyHist& hist, double q);

// Attempted and failed operations of one closed loop. A reply that misses
// its deadline or an operation the system refuses is a failure; an output
// that fails its check is a failure and also makes the run incorrect.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;  // failed output checks (subset of failed)

  void ok() noexcept { ++attempted; }
  void fail() noexcept {
    ++attempted;
    ++failed;
  }
  void wrong_output() noexcept {
    fail();
    ++wrong;
  }
  // The system completed the operation (or refused it).
  void record(bool good) noexcept { good ? ok() : fail(); }
  // The operation's output passed (or failed) its check.
  void check(bool output_ok) noexcept { output_ok ? ok() : wrong_output(); }
  void merge(const Outcome& other) noexcept {
    attempted += other.attempted;
    failed += other.failed;
    wrong += other.wrong;
  }
  // failed / attempted; a run that attempted nothing counts as all-failed.
  double fail_ratio() const noexcept {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// Latency summary in microseconds.
struct Latency {
  std::uint64_t count = 0;
  double mean_us = 0;
  std::optional<double> p50_us;
  std::optional<double> p99_us;
};

// Summary of nanosecond samples (sorted in place).
Latency summarize_ns(std::vector<std::uint64_t>& samples);

// Host steal: this benchmark runs in a VM whose vCPUs the hypervisor
// deschedules in bursts (0.2-20% of CPU time while it was sized; every run
// prints its share). Stolen time only ever slows the program down, and it
// moves whole-run figures by more than any bound a change could be held to.
// So a run's window is cut into short time slices, and its rate and median
// latency are taken from its quietest tenth: the 90th percentile of the
// slice rates and the 10th percentile of the slice medians. Whole-run
// percentiles are printed beside them.
inline constexpr double kQuietShare = 0.1;

// One completed operation: when it ended and how long it took.
struct Sample {
  std::uint64_t end_ns = 0;
  std::uint64_t latency_ns = 0;
};

// Quiet-tenth figures of one run.
struct Quiet {
  double ops_per_s = 0;
  std::optional<double> p50_us;  // unset with fewer than 10 reporting slices
};

// From per-slice rates and the medians of the slices that can report one.
Quiet quiet_figures(std::vector<double> rates, std::vector<double> p50s);

// Whole-run summary of the samples' latencies.
Latency summarize_samples(const std::vector<Sample>& samples);

// Cuts each measured window into slices of `slice_ns` (the last one absorbs
// the remainder; slices with fewer than two samples give no rate) and takes
// the quiet-tenth figures over the slices of all windows. Samples are in
// completion order and windows in time order.
Quiet quiet_samples(const std::vector<Sample>& samples,
                    const std::vector<Span>& windows, std::uint64_t slice_ns);

// Rounds of a run that reports the end-to-end metrics. Each round sets the
// deployment up afresh, kSetupBatch times with the last one kept, and
// measures it for its share of the run. So the set-ups see the host at
// kRounds moments of the run, and the quiet tenth is taken over kRounds
// deployments: two deployments of the same code in one process differed by
// up to 13% in kv_mixed throughput. A traced run, and the untraced run its
// overhead is taken against, keep one round, because the per-layer counters
// are deltas over one deployment.
inline constexpr int kRounds = 4;
inline constexpr int kSetupBatch = 8;

struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int rounds = 1;  // more than one only untraced (see kRounds)
  // Replies later than this count as failed.
  std::chrono::milliseconds reply_deadline{2000};
};

// What one workload run measured: `quiet` holds its end-to-end rate and
// median latency, `latency` the whole-run summary of the same operation.
struct WorkloadResult {
  Outcome outcome;
  std::vector<double> setup_s;  // one entry per setup performed in the run
  std::uint64_t ops = 0;        // successful operations while measuring
  double seconds = 0;           // measured wall time
  Quiet quiet;                  // the end-to-end rate and median
  Latency latency;              // whole-run percentiles
  std::string input_digest;
  std::string pin_map;
  // The workload's own names for its figures (e.g. smc.req_per_s), printed
  // in the human-readable report; unset values fell short of the
  // percentile rule.
  struct Named {
    std::string name;
    std::optional<double> value;
    std::string unit;
    std::uint64_t samples = 0;
  };
  std::vector<Named> named;
  // Per-layer metrics (traced runs only); names not set by the workload
  // report 0 because the workload does not exercise that layer.
  std::map<std::string, double> layer;
  // Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

// Pins the calling thread to one CPU (no-op when the CPU does not exist).
void pin_to_cpu(int cpu);

// FNV-1a digest accumulator for the generated inputs.
class Digest {
 public:
  void add(std::span<const std::uint8_t> bytes) noexcept;
  void add_u64(std::uint64_t v) noexcept;
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Deterministic 64-bit mixer (splitmix64 finaliser) for seeded inputs.
inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Voluntary context switches of the whole process / of the calling thread.
std::uint64_t process_voluntary_switches();
std::uint64_t thread_voluntary_switches();

// Median of a non-empty list.
double median(std::vector<double> values);

// Lower quartile (nearest rank) of a non-empty list.
double lower_quartile(std::vector<double> values);

// Public counters of a running deployment, taken at one instant.
struct Counters {
  ea::core::HealthSnapshot health;
  ea::sgxsim::TransitionStats transitions;
  std::uint64_t voluntary_switches = 0;  // whole process
};

Counters sample_counters(const ea::core::Runtime& rt);

// Change of one WorkerHealth field of the named worker between snapshots.
std::uint64_t worker_delta(const Counters& before, const Counters& after,
                           std::string_view worker,
                           std::uint64_t ea::core::WorkerHealth::*field);

// Per-operation counter metrics every runtime workload reports: enclave
// transitions, burned cycles, worker rounds, steals and voluntary sleeps.
// `generator_switches` are the voluntary switches of the benchmark's own
// threads, which are not the runtime's.
void add_counter_layers(const Counters& before, const Counters& after,
                        std::uint64_t ops, std::uint64_t generator_switches,
                        std::map<std::string, double>& layer);

}  // namespace perfbench

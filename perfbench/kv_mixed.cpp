// kv_mixed: the POS (paper §4.1) as a plain anonymous-mapped store — 64 Ki
// keys with 64-byte values in a store of 4x that capacity. Three pinned
// closed-loop threads issue 80% get, 15% set and 5% erase over
// Zipf(0.99)-distributed keys while the cleaner runs as a
// pos::CleanerActor on one runtime worker. This is the only workload
// without the message plane. Reads, overwrites and erases share hot
// buckets, so a write-path or cleaner change that costs reads shows up in
// the op latency.
//
// The op streams are generated from the seed before timing (the Zipf
// sampler alone costs about as much as a get) and replayed cyclically.
// Op latency is timed with the TSC, calibrated against the steady clock
// over the measured window, because two clock reads per op would cost a
// visible share of a ~250 ns op.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "crypto/rng.hpp"
#include "pos/cleaner_actor.hpp"
#include "pos/pos.hpp"
#include "util/cycles.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kKeys = 64 * 1024;
constexpr std::uint32_t kCapacity = 4 * kKeys;
constexpr std::size_t kKeyBytes = 8;
constexpr double kZipfTheta = 0.99;
constexpr int kClients = 3;
constexpr int kClientCpus[kClients] = {1, 2, 3};
constexpr int kCleanerCpu = 0;
constexpr std::size_t kStreamOps = 1 << 20;  // per client, replayed
constexpr double kSliceNs = 100e6;
constexpr std::uint64_t kSampleEvery = 64;

enum Op : std::uint32_t { kGet = 0, kSet = 1, kErase = 2 };

std::uint32_t stream_key(std::uint32_t op) { return op & 0xffff; }
Op stream_op(std::uint32_t op) { return static_cast<Op>(op >> 16); }

// Cleaner with a span around every quantum (traced runs report its
// busy time and how many quanta freed anything).
class TracedCleaner : public ea::pos::CleanerActor {
 public:
  using CleanerActor::CleanerActor;

  bool body() override {
    const std::uint64_t begin = now_ns();
    const bool progress = CleanerActor::body();
    busy_ns.fetch_add(now_ns() - begin, std::memory_order_relaxed);
    quanta.fetch_add(1, std::memory_order_relaxed);
    if (progress) useful.fetch_add(1, std::memory_order_relaxed);
    return progress;
  }

  std::atomic<std::uint64_t> busy_ns{0};
  std::atomic<std::uint64_t> quanta{0};
  std::atomic<std::uint64_t> useful{0};
};

struct Inputs {
  std::vector<std::array<std::uint8_t, kKeyBytes>> keys;
  std::vector<std::vector<std::uint32_t>> streams;  // key | op << 16
};

// Zipf(theta) over ranks 0..n-1 by inverse CDF; rank r maps to a fixed
// permutation of the key indexes so hot keys spread over the buckets. The
// key names and the popularity ranking do not depend on the seed: which
// hot keys happen to share a bucket moved throughput by ±10% between
// seeds, so every run gets the same hot set and the seed draws the op
// streams.
Inputs make_inputs(std::uint64_t seed, Digest& digest) {
  Inputs in;
  in.keys.resize(kKeys);
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    const std::uint64_t v = mix64(k);
    for (std::size_t b = 0; b < kKeyBytes; ++b) {
      in.keys[k][b] = static_cast<std::uint8_t>(v >> (8 * b));
    }
    digest.add(in.keys[k]);
  }
  std::vector<double> cdf(kKeys);
  double sum = 0;
  for (std::uint32_t r = 0; r < kKeys; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfTheta);
    cdf[r] = sum;
  }
  for (double& c : cdf) c /= sum;
  std::vector<std::uint32_t> rank_to_key(kKeys);
  for (std::uint32_t k = 0; k < kKeys; ++k) rank_to_key[k] = k;
  ea::crypto::FastRng perm(0x5eed);
  for (std::uint32_t k = kKeys - 1; k > 0; --k) {
    std::swap(rank_to_key[k], rank_to_key[perm.next_below(k + 1)]);
  }
  for (int t = 0; t < kClients; ++t) {
    ea::crypto::FastRng rng(mix64(seed * 16 + static_cast<std::uint64_t>(t)));
    std::vector<std::uint32_t> stream(kStreamOps);
    for (std::uint32_t& op : stream) {
      const double u = static_cast<double>(rng.next() >> 11) * 0x1p-53;
      const auto rank = static_cast<std::uint32_t>(
          std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      const std::uint32_t key = rank_to_key[std::min(rank, kKeys - 1)];
      const std::uint64_t mix = rng.next_below(100);
      const Op kind = mix < 80 ? kGet : (mix < 95 ? kSet : kErase);
      op = key | (static_cast<std::uint32_t>(kind) << 16);
      digest.add_u64(op);
    }
    in.streams.push_back(std::move(stream));
  }
  return in;
}

std::span<const std::uint8_t> key_span(const Inputs& in, std::uint32_t k) {
  return {in.keys[k].data(), kKeyBytes};
}

struct Store {
  std::unique_ptr<ea::pos::Pos> pos;
  std::unique_ptr<ea::core::Runtime> rt;
  ea::pos::CleanerActor* cleaner = nullptr;
  TracedCleaner* traced = nullptr;
};

// Creates the store and its cleaner, prefills every key and checks one.
bool open_store(Store& s, const Inputs& in, bool trace) {
  ea::pos::PosOptions o;
  o.entry_count = kCapacity;
  o.entry_payload = static_cast<std::uint32_t>(kKeyBytes + kKvValueBytes);
  o.bucket_count = kKeys;
  s.pos = std::make_unique<ea::pos::Pos>(o);
  ea::core::RuntimeOptions ro;
  ro.pool_nodes = 64;
  ro.node_payload_bytes = 64;
  s.rt = std::make_unique<ea::core::Runtime>(ro);
  std::unique_ptr<ea::pos::CleanerActor> cleaner;
  if (trace) {
    auto t = std::make_unique<TracedCleaner>("kv.cleaner", *s.pos);
    s.traced = t.get();
    cleaner = std::move(t);
  } else {
    cleaner = std::make_unique<ea::pos::CleanerActor>("kv.cleaner", *s.pos);
  }
  s.cleaner = cleaner.get();
  s.rt->add_actor(std::move(cleaner));
  s.rt->add_worker("kv.cleaner", {kCleanerCpu}, {"kv.cleaner"});
  std::uint8_t value[kKvValueBytes];
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    make_kv_value(k, 0, value);
    if (!s.pos->set(key_span(in, k), value)) return false;
  }
  s.rt->start();
  std::optional<ea::util::Bytes> v = s.pos->get(key_span(in, 0));
  return v.has_value() && kv_value_ok(0, *v);
}

void close_store(Store& s) {
  if (s.rt) s.rt->stop();
  s.rt.reset();
  s.pos.reset();
}

// One set-up, from store creation to the first checked get, timed into
// res.setup_s. False, with the failure recorded, when it did not get there.
bool timed_setup(Store& s, const Inputs& in, bool trace, WorkloadResult& res) {
  const std::uint64_t t0 = now_ns();
  const bool ok = open_store(s, in, trace);
  res.setup_s.push_back(seconds_since(t0));
  if (ok) return true;
  res.outcome.fail();
  res.notes.push_back("kv_mixed: prefill or first get failed");
  return false;
}

// Per-client results, merged after the join. Aligned so neighbouring
// clients' per-op counters never share a cache line.
struct alignas(64) ClientStats {
  Outcome outcome;
  std::vector<std::uint64_t> slice_ops;
  // Every kSampleEvery-th op's TSC cycles per slice: exact slice medians
  // without holding 100M samples.
  std::vector<std::vector<std::uint32_t>> slice_cycles;
  ea::util::LatencyHist kind_hist[3];  // TSC cycles per op kind
  std::uint64_t set_failed = 0;
  std::uint64_t voluntary_switches = 0;  // this client thread's own
};

void client_loop(ea::pos::Pos& pos, const Inputs& in, int t,
                 const std::atomic<bool>& go, const std::atomic<bool>& stop,
                 const std::atomic<int>& slice, ClientStats& out) {
  pin_to_cpu(kClientCpus[t]);
  const std::vector<std::uint32_t>& stream = in.streams[static_cast<std::size_t>(t)];
  std::uint8_t value[kKvValueBytes];
  std::uint32_t version = static_cast<std::uint32_t>(t) << 28;
  while (!go.load(std::memory_order_acquire)) {
  }
  const std::uint64_t switches0 = thread_voluntary_switches();
  std::size_t i = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    const std::uint32_t op = stream[i];
    i = i + 1 == stream.size() ? 0 : i + 1;
    const std::uint32_t k = stream_key(op);
    const Op kind = stream_op(op);
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    switch (kind) {
      case kGet: {
        t0 = ea::util::rdtsc();
        std::optional<ea::util::Bytes> v = pos.get(key_span(in, k));
        t1 = ea::util::rdtsc();
        // Erased keys are absent; a present value must pass its check.
        out.outcome.check(!v.has_value() || kv_value_ok(k, *v));
        break;
      }
      case kSet: {
        make_kv_value(k, ++version, value);
        t0 = ea::util::rdtsc();
        const bool stored = pos.set(key_span(in, k), value);
        t1 = ea::util::rdtsc();
        out.outcome.record(stored);
        if (!stored) ++out.set_failed;
        break;
      }
      case kErase:
        t0 = ea::util::rdtsc();
        pos.erase(key_span(in, k));
        t1 = ea::util::rdtsc();
        out.outcome.ok();
        break;
    }
    const int s = slice.load(std::memory_order_relaxed);
    if (++out.slice_ops[s] % kSampleEvery == 0) {
      out.slice_cycles[s].push_back(static_cast<std::uint32_t>(t1 - t0));
    }
    out.kind_hist[kind].record(t1 - t0);
  }
  out.voluntary_switches = thread_voluntary_switches() - switches0;
}

// What the clients measured on one store.
struct Round {
  Outcome outcome;
  std::vector<std::uint64_t> slice_ops;
  std::vector<double> slice_seconds;
  std::vector<std::vector<std::uint64_t>> slice_cycles;  // sampled op cycles
  ea::util::LatencyHist by_kind[3];  // TSC cycles per op kind
  std::uint64_t set_failed = 0;
  double seconds = 0;
  std::uint64_t tsc = 0;  // TSC cycles over the measured window
  // Deltas over the window, reported by traced runs.
  Counters before, after;
  std::uint64_t own_switches = 0;  // the benchmark threads' own
  std::uint64_t freed = 0;
  std::uint64_t epochs = 0;
  std::uint64_t busy_ns = 0, quanta = 0, useful = 0;  // traced cleaner
  std::uint64_t outdated_peak = 0, retired_peak = 0;  // traced runs only
};

// Runs the clients on the open store `s` for `seconds`, then stops its
// runtime.
void measure_round(Store& s, const Inputs& in, double seconds, Round& r) {
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<int> slice{0};
  const auto slices =
      static_cast<int>(std::max(1.0, std::round(seconds * 1e9 / kSliceNs)));
  std::vector<ClientStats> stats(kClients);
  for (ClientStats& c : stats) {
    c.slice_ops.resize(slices);
    c.slice_cycles.resize(slices);
  }
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back(client_loop, std::ref(*s.pos), std::cref(in), t,
                         std::cref(go), std::cref(stop), std::cref(slice),
                         std::ref(stats[static_cast<std::size_t>(t)]));
  }
  const std::uint64_t freed0 = s.cleaner->freed_total();
  const std::uint64_t epoch0 = s.pos->reclaim_epoch();
  const std::uint64_t busy0 = s.traced ? s.traced->busy_ns.load() : 0;
  const std::uint64_t quanta0 = s.traced ? s.traced->quanta.load() : 0;
  const std::uint64_t useful0 = s.traced ? s.traced->useful.load() : 0;
  r.before = sample_counters(*s.rt);
  const std::uint64_t main_switches0 = thread_voluntary_switches();
  const std::uint64_t start_ns = now_ns();
  const std::uint64_t start_tsc = ea::util::rdtsc();
  go.store(true, std::memory_order_release);
  const auto width_ns = static_cast<std::uint64_t>(seconds * 1e9 / slices);
  std::vector<std::uint64_t> bounds = {start_ns};  // slice boundaries
  for (int i = 0; i < slices; ++i) {
    const std::uint64_t until = start_ns + (i + 1) * width_ns;
    for (std::uint64_t now = now_ns(); now < until; now = now_ns()) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<std::uint64_t>(until - now, 100000000)));
      if (s.traced != nullptr) {
        const ea::pos::PosStats st = s.pos->stats();
        r.outdated_peak = std::max(r.outdated_peak, st.outdated);
        r.retired_peak = std::max(r.retired_peak, st.retired);
      }
    }
    bounds.push_back(now_ns());
    if (i + 1 < slices) slice.store(i + 1, std::memory_order_relaxed);
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& c : clients) c.join();
  r.tsc = ea::util::rdtsc() - start_tsc;
  r.seconds = seconds_since(start_ns);
  r.after = sample_counters(*s.rt);
  r.own_switches = thread_voluntary_switches() - main_switches0;
  r.freed = s.cleaner->freed_total() - freed0;
  r.epochs = s.pos->reclaim_epoch() - epoch0;
  s.rt->stop();
  if (s.traced != nullptr) {
    r.busy_ns = s.traced->busy_ns.load() - busy0;
    r.quanta = s.traced->quanta.load() - quanta0;
    r.useful = s.traced->useful.load() - useful0;
  }

  r.slice_ops.assign(slices, 0);
  r.slice_cycles.resize(slices);
  for (int i = 0; i < slices; ++i) {
    r.slice_seconds.push_back(static_cast<double>(bounds[i + 1] - bounds[i]) * 1e-9);
  }
  for (const ClientStats& c : stats) {
    r.outcome.merge(c.outcome);
    r.set_failed += c.set_failed;
    r.own_switches += c.voluntary_switches;
    for (int i = 0; i < slices; ++i) {
      r.slice_ops[i] += c.slice_ops[i];
      r.slice_cycles[i].insert(r.slice_cycles[i].end(), c.slice_cycles[i].begin(),
                               c.slice_cycles[i].end());
    }
    for (int k = 0; k < 3; ++k) r.by_kind[k].merge(c.kind_hist[k]);
  }
}

// Checks run on the quiesced store; each violated one is a failure.
void end_checks(ea::pos::Pos& pos, const Inputs& in, WorkloadResult& res) {
  std::uint64_t bad_values = 0;
  for (std::uint32_t k = 0; k < kKeys; ++k) {
    std::optional<ea::util::Bytes> v = pos.get(key_span(in, k));
    if (v.has_value() && !kv_value_ok(k, *v)) ++bad_values;
  }
  const std::optional<std::string> integrity = pos.integrity_error();
  const ea::pos::PosStats st = pos.stats();
  const bool conserved =
      st.live + st.outdated + st.retired + st.free == kCapacity;
  res.outcome.check(bad_values == 0);
  res.outcome.check(!integrity.has_value());
  res.outcome.check(st.reclaim_hazards == 0);
  res.outcome.check(conserved);
  if (bad_values != 0) {
    res.notes.push_back("kv_mixed: " + std::to_string(bad_values) +
                        " stored values fail their check");
  }
  if (integrity) res.notes.push_back("kv_mixed: integrity: " + *integrity);
  if (!conserved) {
    res.notes.push_back(
        "kv_mixed: conservation broken: live " + std::to_string(st.live) +
        " + outdated " + std::to_string(st.outdated) + " + retired " +
        std::to_string(st.retired) + " + free " + std::to_string(st.free) +
        " != " + std::to_string(kCapacity));
  }
}

}  // namespace

void make_kv_value(std::uint32_t key_index, std::uint32_t version,
                   std::uint8_t (&out)[kKvValueBytes]) {
  std::uint64_t words[kKvValueBytes / 8];
  words[0] = key_index | (static_cast<std::uint64_t>(version) << 32);
  std::uint64_t h = mix64(words[0]);
  for (std::size_t w = 1; w + 1 < kKvValueBytes / 8; ++w) {
    words[w] = mix64(words[0] + w);
    h = mix64(h ^ words[w]);
  }
  words[kKvValueBytes / 8 - 1] = h;
  std::memcpy(out, words, sizeof(words));
}

bool kv_value_ok(std::uint32_t key_index, std::span<const std::uint8_t> value) {
  if (value.size() != kKvValueBytes) return false;
  std::uint64_t words[kKvValueBytes / 8];
  std::memcpy(words, value.data(), sizeof(words));
  if (static_cast<std::uint32_t>(words[0]) != key_index) return false;
  std::uint64_t h = mix64(words[0]);
  for (std::size_t w = 1; w + 1 < kKvValueBytes / 8; ++w) h = mix64(h ^ words[w]);
  return h == words[kKvValueBytes / 8 - 1];
}

WorkloadResult run_kv_mixed(const RunConfig& config) {
  WorkloadResult res;
  res.pin_map = "kv.cleaner=cpu0 client0=cpu1 client1=cpu2 client2=cpu3";
  Digest digest;
  const Inputs in = make_inputs(config.seed, digest);
  res.input_digest = digest.hex();

  const int rounds = config.rounds;
  Store s;
  Round last;  // the last round (the only one when traced)
  std::vector<double> rates;
  std::vector<std::vector<std::uint64_t>> slice_cycles;
  ea::util::LatencyHist by_kind[3];
  std::uint64_t tsc = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < kSetupBatch; ++i) {
      if (round != 0 || i != 0) close_store(s);
      if (!timed_setup(s, in, config.trace, res)) {
        close_store(s);
        return res;
      }
    }
    last = Round{};
    measure_round(s, in, config.seconds / rounds, last);
    res.outcome.merge(last.outcome);
    res.ops += last.outcome.attempted - last.outcome.failed;
    res.seconds += last.seconds;
    tsc += last.tsc;
    for (std::size_t i = 0; i < last.slice_ops.size(); ++i) {
      rates.push_back(static_cast<double>(last.slice_ops[i]) /
                      last.slice_seconds[i]);
      slice_cycles.push_back(std::move(last.slice_cycles[i]));
    }
    for (int k = 0; k < 3; ++k) by_kind[k].merge(last.by_kind[k]);
    end_checks(*s.pos, in, res);
  }

  const double cycles_per_ns = static_cast<double>(tsc) / (res.seconds * 1e9);
  // Histograms hold TSC cycles; percentiles scale to nanoseconds.
  auto to_ns = [cycles_per_ns](std::optional<double> c) -> std::optional<double> {
    if (!c) return std::nullopt;
    return *c / cycles_per_ns;
  };
  std::vector<double> p50s;
  for (std::vector<std::uint64_t>& sampled : slice_cycles) {
    std::sort(sampled.begin(), sampled.end());
    if (auto p = to_ns(percentile(sampled, 0.50))) p50s.push_back(*p * 1e-3);
  }
  res.quiet = quiet_figures(std::move(rates), std::move(p50s));
  ea::util::LatencyHist all;
  for (const ea::util::LatencyHist& h : by_kind) all.merge(h);
  res.latency.count = all.count();
  if (auto p = to_ns(percentile(all, 0.50))) res.latency.p50_us = *p * 1e-3;
  if (auto p = to_ns(percentile(all, 0.99))) res.latency.p99_us = *p * 1e-3;

  auto kind_ns = [&](Op kind, double q) {
    return to_ns(percentile(by_kind[kind], q));
  };
  res.named = {
      {"kv.ops_per_s", res.quiet.ops_per_s, "1/s", res.ops},
      {"kv.op_p50_us", res.quiet.p50_us, "us", res.latency.count},
      {"kv.get_p50_ns", kind_ns(kGet, 0.50), "ns", by_kind[kGet].count()},
      {"kv.get_p99_ns", kind_ns(kGet, 0.99), "ns", by_kind[kGet].count()},
      {"kv.set_p50_ns", kind_ns(kSet, 0.50), "ns", by_kind[kSet].count()},
      {"kv.set_p99_ns", kind_ns(kSet, 0.99), "ns", by_kind[kSet].count()},
  };

  if (config.trace) {
    auto& layer = res.layer;
    add_counter_layers(last.before, last.after, res.ops, last.own_switches,
                       layer);
    layer["pos.get_p50_ns"] = kind_ns(kGet, 0.50).value_or(0);
    layer["pos.get_p99_ns"] = kind_ns(kGet, 0.99).value_or(0);
    layer["pos.set_p50_ns"] = kind_ns(kSet, 0.50).value_or(0);
    layer["pos.set_p99_ns"] = kind_ns(kSet, 0.99).value_or(0);
    layer["pos.erase_p50_ns"] = kind_ns(kErase, 0.50).value_or(0);
    layer["pos.set_failed"] = static_cast<double>(last.set_failed);
    const double q = last.quanta == 0 ? 1.0 : static_cast<double>(last.quanta);
    layer["pos.clean_step_us"] = static_cast<double>(last.busy_ns) / q * 1e-3;
    layer["pos.cleaner_useful_ratio"] = static_cast<double>(last.useful) / q;
    layer["pos.freed_per_s"] = static_cast<double>(last.freed) / res.seconds;
    layer["pos.outdated_peak"] = static_cast<double>(last.outdated_peak);
    layer["pos.retired_peak"] = static_cast<double>(last.retired_peak);
    layer["pos.epoch_advances_per_s"] =
        static_cast<double>(last.epochs) / res.seconds;
    layer["pos.reclaim_hazards"] =
        static_cast<double>(s.pos->stats().reclaim_hazards);
  }
  close_store(s);
  return res;
}

}  // namespace perfbench

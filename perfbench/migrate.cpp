// migrate: live migration (DESIGN.md §17). An enclaved echo actor holding
// 64 KiB of private state is bounced between two enclaves by
// MigrationCoordinator::migrate(), with a ~1 ms gap between moves, while a
// driver actor keeps 32 messages in flight on its channel. It runs the
// stealing scheduler, which live moves require. This is the only workload
// that runs core/migration and the sgxsim sealing, attestation and counter
// services, and the only one on the stealing loop.
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/channel.hpp"
#include "core/migration.hpp"
#include "crypto/rng.hpp"
#include "sgxsim/enclave.hpp"
#include "util/bytes.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ea::concurrent::NodeLease;
using ea::core::MigrateResult;

constexpr std::size_t kStateBytes = 64 * 1024;
constexpr std::uint64_t kWindow = 32;
constexpr int kDriverCpu = 0;
constexpr int kPayloadCpu = 1;
constexpr int kCallerCpu = 2;
constexpr auto kGap = std::chrono::milliseconds(1);
constexpr std::uint64_t kSliceNs = 250'000'000;  // ~30 moves

// Keeps kWindow sequence-numbered messages in flight and checks that they
// come back in order with none missing.
class DriverActor : public ea::core::Actor {
 public:
  using ea::core::Actor::Actor;

  void construct(ea::core::Runtime&) override { end_ = connect("mig.chan"); }

  bool body() override {
    bool progress = false;
    while (NodeLease lease = end_->recv()) {
      outcome_.check(lease->size == 8 &&
                     check_.accept(ea::util::load_le64(lease->data().data())));
      acked_.fetch_add(1, std::memory_order_release);
      progress = true;
    }
    const std::uint64_t acked = acked_.load(std::memory_order_relaxed);
    while (sent_ < acked + kWindow) {
      std::uint8_t wire[8];
      ea::util::store_le64(wire, sent_);
      if (!end_->send(std::span<const std::uint8_t>(wire, 8))) break;
      ++sent_;
      progress = true;
    }
    return progress;
  }

  std::uint64_t acked() const noexcept {
    return acked_.load(std::memory_order_acquire);
  }
  // Read after the runtime stopped.
  const Outcome& outcome() const noexcept { return outcome_; }

 private:
  ea::core::ChannelEnd* end_ = nullptr;
  std::uint64_t sent_ = 0;
  std::atomic<std::uint64_t> acked_{0};
  SequenceCheck check_;
  Outcome outcome_;
};

// Enclaved echo carrying migratable private state. `drop_seq` makes it
// swallow one message, which the self-test uses to prove a lost driver
// message is counted.
class PayloadActor : public ea::core::Actor {
 public:
  PayloadActor(std::string name, ea::util::Bytes state, std::uint64_t drop_seq)
      : ea::core::Actor(std::move(name)),
        state_(std::move(state)),
        drop_seq_(drop_seq) {}

  void construct(ea::core::Runtime&) override { end_ = connect("mig.chan"); }

  bool body() override {
    bool progress = false;
    while (NodeLease lease = end_->recv()) {
      progress = true;
      if (lease->size == 8 &&
          ea::util::load_le64(lease->data().data()) == drop_seq_) {
        continue;
      }
      end_->send(lease->data());
    }
    return progress;
  }

  bool migratable() const override { return true; }
  std::uint64_t state_bytes() const override { return state_.size(); }
  ea::util::Bytes export_state() override { return state_; }
  bool import_state(std::span<const std::uint8_t> state) override {
    if (state.size() != state_.size()) return false;
    std::memcpy(state_.data(), state.data(), state.size());
    return true;
  }
  // Read after the runtime stopped.
  const ea::util::Bytes& state() const noexcept { return state_; }

 private:
  ea::core::ChannelEnd* end_ = nullptr;
  ea::util::Bytes state_;
  std::uint64_t drop_seq_;
};

struct Rig {
  std::unique_ptr<ea::core::Runtime> rt;
  std::unique_ptr<ea::core::MigrationCoordinator> coordinator;
  DriverActor* driver = nullptr;
  PayloadActor* payload = nullptr;
  ea::sgxsim::Enclave* e1 = nullptr;
  ea::sgxsim::Enclave* e2 = nullptr;
};

constexpr std::uint64_t kNoDrop = ~0ull;

// Starts the deployment and waits for the first acknowledged message.
bool start_rig(Rig& r, const ea::util::Bytes& state, std::uint64_t drop_seq,
               std::chrono::milliseconds deadline) {
  ea::core::RuntimeOptions options;
  options.sched = ea::core::SchedMode::kSteal;
  options.pool_nodes = 1024;
  options.node_payload_bytes = 256;
  r.rt = std::make_unique<ea::core::Runtime>(options);
  r.rt->enclave("mig.e0");
  r.e1 = &r.rt->enclave("mig.e1");
  r.e2 = &r.rt->enclave("mig.e2");
  auto driver = std::make_unique<DriverActor>("mig.driver");
  r.driver = driver.get();
  r.rt->add_actor(std::move(driver), "mig.e0");
  auto payload = std::make_unique<PayloadActor>("mig.payload", state, drop_seq);
  r.payload = payload.get();
  r.rt->add_actor(std::move(payload), "mig.e1");
  r.rt->add_worker("mig.w0", {kDriverCpu}, {"mig.driver"});
  r.rt->add_worker("mig.w1", {kPayloadCpu}, {"mig.payload"});
  r.rt->start();
  r.coordinator = std::make_unique<ea::core::MigrationCoordinator>(*r.rt);
  const auto until = Clock::now() + deadline;
  while (r.driver->acked() == 0) {
    if (Clock::now() > until) return false;
    std::this_thread::yield();
  }
  return true;
}

void stop_rig(Rig& r) {
  if (r.rt) r.rt->stop();
  r.coordinator.reset();
  r.rt.reset();
  ea::sgxsim::EnclaveManager::instance().reset_for_testing();
}

// One move to the other enclave, then the gap; the driver must see new
// acknowledgements within the deadline. Returns the migrate() call span.
Span move_once(Rig& r, std::chrono::milliseconds deadline, Outcome& outcome) {
  ea::sgxsim::Enclave& target =
      r.payload->placement() == r.e1->id() ? *r.e2 : *r.e1;
  Span call;
  call.begin_ns = now_ns();
  const MigrateResult result = r.coordinator->migrate(*r.payload, target);
  call.end_ns = now_ns();
  outcome.record(result == MigrateResult::kOk);
  const std::uint64_t acked = r.driver->acked();
  // Spun, not slept: a sleep's wake-up lateness would enter the move rate.
  for (const auto gap_end = Clock::now() + kGap; Clock::now() < gap_end;) {
  }
  const auto until = Clock::now() + deadline;
  while (r.driver->acked() == acked) {
    if (Clock::now() > until) {
      outcome.fail();  // the stream stalled: driver messages were lost
      break;
    }
    std::this_thread::yield();
  }
  return call;
}

ea::util::Bytes seeded_state(std::uint64_t seed) {
  ea::util::Bytes state(kStateBytes);
  ea::crypto::FastRng rng(mix64(seed ^ 0x3167));
  rng.fill(state);
  return state;
}

// One set-up, timed into res.setup_s. It ends with the first checked move:
// enclaves, channel attestation, the first attested transfer and the
// stream resuming. False, with the failure recorded, when it did not get
// there.
bool timed_setup(Rig& r, const ea::util::Bytes& state, const RunConfig& config,
                 WorkloadResult& res) {
  const std::uint64_t t0 = now_ns();
  Outcome first;
  if (start_rig(r, state, kNoDrop, config.reply_deadline)) {
    move_once(r, config.reply_deadline, first);
  } else {
    first.fail();
  }
  res.setup_s.push_back(seconds_since(t0));
  if (first.failed == 0) return true;
  res.outcome.merge(first);
  res.notes.push_back("migrate: set-up did not reach a checked move");
  return false;
}

}  // namespace

Outcome migrate_with_drop(std::uint64_t moves, std::uint64_t drop_seq) {
  Rig r;
  Outcome outcome;
  const auto deadline = std::chrono::milliseconds(500);
  if (!start_rig(r, seeded_state(1), drop_seq, deadline)) {
    outcome.fail();
  } else {
    for (std::uint64_t i = 0; i < moves; ++i) move_once(r, deadline, outcome);
    r.rt->stop();
    outcome.merge(r.driver->outcome());
  }
  stop_rig(r);
  return outcome;
}

WorkloadResult run_migrate(const RunConfig& config) {
  WorkloadResult res;
  pin_to_cpu(kCallerCpu);
  res.pin_map = "mig.w0=cpu0 mig.w1=cpu1 caller=cpu2";
  const ea::util::Bytes state = seeded_state(config.seed);
  Digest digest;
  digest.add(state);
  res.input_digest = digest.hex();

  const int rounds = config.rounds;
  const double share = config.seconds / rounds;
  const std::uint64_t min_samples = min_samples_for(0.99);
  Rig r;
  std::vector<Sample> calls;
  std::vector<Span> windows;
  // pause_hist() microseconds of every completed move of the measured
  // deployments, each one's set-up move included.
  ea::util::LatencyHist pauses;
  // Counters of the last round (the only one when traced).
  Counters before, after;
  ea::core::MigrationStats stats0, stats1;
  Outcome moves;
  std::uint64_t acks = 0;
  std::uint64_t gen_switches = 0;
  std::size_t pool_free_min = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < kSetupBatch; ++i) {
      if (round != 0 || i != 0) stop_rig(r);
      if (!timed_setup(r, state, config, res)) {
        stop_rig(r);
        return res;
      }
    }
    const bool last = round + 1 == rounds;
    before = sample_counters(*r.rt);
    stats0 = r.coordinator->stats();
    const std::uint64_t acked0 = r.driver->acked();
    const std::uint64_t gen_switches0 = thread_voluntary_switches();
    pool_free_min = r.rt->public_pool().size();
    moves = Outcome{};
    const std::uint64_t start = now_ns();
    double elapsed = 0;
    // The last round runs on until the whole-run p99 can be reported.
    while (elapsed < share ||
           (last && calls.size() < min_samples &&
            res.seconds + elapsed < 3 * config.seconds)) {
      const Span call = move_once(r, config.reply_deadline, moves);
      calls.push_back({call.end_ns, call.ns()});
      if (config.trace) {
        pool_free_min = std::min(pool_free_min, r.rt->public_pool().size());
      }
      elapsed = seconds_since(start);
    }
    windows.push_back({start, now_ns()});
    res.seconds += static_cast<double>(windows.back().ns()) * 1e-9;
    acks = r.driver->acked() - acked0;
    gen_switches = thread_voluntary_switches() - gen_switches0;
    after = sample_counters(*r.rt);
    r.rt->stop();

    stats1 = r.coordinator->stats();
    res.ops += stats1.completed - stats0.completed;
    res.outcome.merge(moves);
    res.outcome.merge(r.driver->outcome());
    // The state must survive every round trip unchanged.
    res.outcome.check(r.payload->state() == state);
    if (r.payload->state() != state) {
      res.notes.push_back("migrate: private state changed across moves");
    }
    pauses.merge(r.coordinator->pause_hist());
  }

  // The workload's latency is the migrate() call as its caller sees it,
  // timed exactly. The pause inside it (park to unpark) is only available
  // as pause_hist()'s ~3%-wide buckets, whose upper bounds would repeat
  // digit for digit across runs; it is reported beside the call latency.
  res.quiet = quiet_samples(calls, windows, kSliceNs);
  res.latency = summarize_samples(calls);
  auto pause_ms = [&pauses](double q) -> std::optional<double> {
    if (auto p = percentile(pauses, q)) return *p * 1e-3;
    return std::nullopt;
  };
  auto ms = [](std::optional<double> us) -> std::optional<double> {
    if (!us) return std::nullopt;
    return *us * 1e-3;
  };
  res.named = {
      {"migrate.moves_per_s", res.quiet.ops_per_s, "1/s", res.ops},
      {"migrate.call_p50_ms", ms(res.quiet.p50_us), "ms", res.latency.count},
      {"migrate.call_p99_ms (whole run)", ms(res.latency.p99_us), "ms",
       res.latency.count},
      {"migrate.pause_p50_ms (whole run)", pause_ms(0.50), "ms",
       pauses.count()},
      {"migrate.pause_p99_ms (whole run)", pause_ms(0.99), "ms",
       pauses.count()},
  };

  if (config.trace) {
    auto& layer = res.layer;
    add_counter_layers(before, after, res.ops, gen_switches, layer);
    layer["concurrent.pool.free_min"] = static_cast<double>(pool_free_min);
    const double n = moves.attempted == 0 ? 1.0
                                          : static_cast<double>(moves.attempted);
    layer["core.migration.call_ms"] = res.latency.mean_us * 1e-3;
    layer["core.migration.carried_per_move"] =
        static_cast<double>(stats1.in_flight_carried -
                            stats0.in_flight_carried) /
        n;
    layer["core.migration.rolled_back"] =
        static_cast<double>(stats1.rolled_back - stats0.rolled_back);
    layer["core.migration.forks_prevented"] =
        static_cast<double>(stats1.forks_prevented - stats0.forks_prevented);
    layer["migrate.echo_per_s"] = static_cast<double>(acks) / res.seconds;
  }
  stop_rig(r);
  return res;
}

}  // namespace perfbench

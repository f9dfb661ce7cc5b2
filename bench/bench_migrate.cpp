// Live-migration cost (DESIGN.md §17): how long is an actor unavailable
// while it moves between enclaves, and what does a forced move cost a real
// service mid-traffic?
//
//   pause: an enclaved echo actor with S bytes of private state is bounced
//     between two enclaves while a window-send driver keeps the channel hot.
//     Each completed migration records its pause — park-to-unpark, covering
//     drain, seal, attested transfer, counter handshake, and resume — in
//     the coordinator's LatencyHist; rows report p50/p99/p999 per state
//     size (schema-v3 percentile fields).
//
//   xmpp_echo: one single-instance trusted XMPP echo deployment measured
//     in 5 pairs of windows, each an undisturbed window followed by one with
//     the protocol eactor forcibly migrated every ~50 ms. The ratio rows
//     are the median migrating/baseline ratio of the pairs and its min and
//     max — the service-visible dip; the forced_pause row is the tail of
//     those forced moves.
//
// Prints CSV rows and, when EA_BENCH_JSON names a path, writes a v3 JSON
// report there (the committed one is BENCH_migrate.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "bench/xmpp_harness.hpp"
#include "core/channel.hpp"
#include "core/migration.hpp"
#include "core/runtime.hpp"
#include "util/bench_report.hpp"
#include "util/bytes.hpp"
#include "util/latency_hist.hpp"
#include "xmpp/server.hpp"

namespace {

using namespace std::chrono_literals;
using ea::core::MigrateResult;

// Window-send driver on the untrusted side of the channel: keeps traffic
// in flight so every migration happens against a non-empty stream.
class DriverActor : public ea::core::Actor {
 public:
  using ea::core::Actor::Actor;

  void construct(ea::core::Runtime&) override { end_ = connect("bench.chan"); }

  bool body() override {
    bool progress = false;
    while (ea::concurrent::NodeLease lease = end_->recv()) {
      acked_.fetch_add(1, std::memory_order_relaxed);
      progress = true;
    }
    const std::uint64_t acked = acked_.load(std::memory_order_relaxed);
    while (sent_ < acked + 32) {
      std::uint8_t wire[8];
      ea::util::store_le64(wire, sent_);
      if (!end_->send(std::span<const std::uint8_t>(wire, 8))) break;
      ++sent_;
      progress = true;
    }
    return progress;
  }

  std::uint64_t acked() const noexcept {
    return acked_.load(std::memory_order_relaxed);
  }

 private:
  ea::core::ChannelEnd* end_ = nullptr;
  std::uint64_t sent_ = 0;
  std::atomic<std::uint64_t> acked_{0};
};

// Enclaved echo carrying `bytes` of migratable private state.
class PayloadActor : public ea::core::Actor {
 public:
  PayloadActor(std::string name, std::size_t bytes)
      : ea::core::Actor(std::move(name)), state_(bytes, 0xa5) {}

  void construct(ea::core::Runtime&) override { end_ = connect("bench.chan"); }

  bool body() override {
    bool progress = false;
    while (ea::concurrent::NodeLease lease = end_->recv()) {
      end_->send(lease->data());
      progress = true;
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

 private:
  ea::core::ChannelEnd* end_ = nullptr;
  ea::util::Bytes state_;
};

// Bounces the actor between e1/e2 `moves` times against live channel
// traffic; returns the coordinator's pause histogram.
ea::util::LatencyHist run_pause_sweep(std::size_t state_bytes,
                                      std::uint64_t moves) {
  ea::core::RuntimeOptions options;
  options.sched = ea::core::SchedMode::kSteal;
  ea::core::Runtime rt(options);
  rt.enclave("pause.e0");
  ea::sgxsim::Enclave& e1 = rt.enclave("pause.e1");
  ea::sgxsim::Enclave& e2 = rt.enclave("pause.e2");
  auto driver_owned = std::make_unique<DriverActor>("pause.driver");
  DriverActor* driver = driver_owned.get();
  rt.add_actor(std::move(driver_owned), "pause.e0");
  auto payload_owned =
      std::make_unique<PayloadActor>("pause.payload", state_bytes);
  PayloadActor* payload = payload_owned.get();
  rt.add_actor(std::move(payload_owned), "pause.e1");
  rt.add_worker("pause.w1", {}, {"pause.driver"});
  rt.add_worker("pause.w2", {}, {"pause.payload"});
  rt.start();

  // Let the stream reach steady state before the first move.
  auto warm_deadline = std::chrono::steady_clock::now() + 2s;
  while (driver->acked() < 100 &&
         std::chrono::steady_clock::now() < warm_deadline) {
    std::this_thread::sleep_for(1ms);
  }

  ea::core::MigrationCoordinator coordinator(rt);
  std::uint64_t done = 0;
  auto deadline = std::chrono::steady_clock::now() + 60s;
  while (done < moves && std::chrono::steady_clock::now() < deadline) {
    ea::sgxsim::Enclave& target = (payload->placement() == e1.id()) ? e2 : e1;
    if (coordinator.migrate(*payload, target) == MigrateResult::kOk) ++done;
    std::this_thread::sleep_for(1ms);  // let traffic re-fill between moves
  }
  rt.stop();
  if (done < moves) {
    ea::bench::note("pause sweep (%zu B): only %llu of %llu moves completed",
                    state_bytes, static_cast<unsigned long long>(done),
                    static_cast<unsigned long long>(moves));
  }
  return coordinator.pause_hist();
}

ea::util::BenchPercentiles percentiles(const ea::util::LatencyHist& hist) {
  ea::util::BenchPercentiles pcts;
  pcts.p50_us = static_cast<double>(hist.percentile(0.50));
  pcts.p99_us = static_cast<double>(hist.percentile(0.99));
  pcts.p999_us = static_cast<double>(hist.percentile(0.999));
  return pcts;
}

}  // namespace

int main() {
  ea::util::BenchReport report("migrate");
  ea::bench::csv_header();

  // --- pause vs private-state size ----------------------------------------
  const std::uint64_t moves = ea::bench::scaled(100, 20);
  const std::size_t kStateSizes[] = {4u << 10, 64u << 10, 256u << 10,
                                     1u << 20};
  for (std::size_t bytes : kStateSizes) {
    ea::util::LatencyHist hist = run_pause_sweep(bytes, moves);
    ea::util::BenchPercentiles pcts = percentiles(hist);
    const double x_kib = static_cast<double>(bytes) / 1024.0;
    ea::bench::row("migrate", "pause.p50", x_kib, pcts.p50_us, "us");
    ea::bench::row("migrate", "pause.p99", x_kib, pcts.p99_us, "us");
    report.add("pause", "live", x_kib, pcts.p50_us, "us", pcts);
  }

  // --- XMPP echo throughput dip under forced migration --------------------
  // One deployment, kPairs pairs of windows: an undisturbed window, then
  // one with the protocol eactor moved every ~50 ms. Pairing the windows
  // keeps host drift out of the ratio.
  constexpr int kPairs = 5;
  const double seconds = ea::bench::seconds_per_point();
  ea::core::RuntimeOptions options;
  options.pool_nodes = 8192;
  options.node_payload_bytes = 2048;
  options.sched = ea::core::SchedMode::kSteal;
  ea::core::Runtime rt(options);
  ea::xmpp::XmppServiceConfig config;
  config.instances = 1;
  config.trusted = true;
  ea::xmpp::XmppService service = ea::xmpp::install_xmpp_service(rt, config);
  ea::sgxsim::Enclave& home = rt.enclave("xmpp.e0");
  ea::sgxsim::Enclave& spare = rt.enclave("xmpp.spare");
  rt.start();
  ea::core::MigrationCoordinator coordinator(rt);

  // One O2O window. Every window logs in the same two jids, and a client's
  // late teardown removes its jid's route even after a new login took it
  // (XmppActor::drop_client), so the next window waits for the directory
  // to empty.
  auto window = [&] {
    const double rate =
        ea::bench::xmpp_o2o_throughput(service.port, 2, seconds);
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (service.shared->directory.size() != 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(1ms);
    }
    return rate;
  };
  std::vector<double> baseline;
  std::vector<double> migrating;
  std::vector<double> ratios;
  for (int pair = 0; pair < kPairs; ++pair) {
    baseline.push_back(window());
    std::atomic<bool> stop{false};
    std::thread mover([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ea::sgxsim::Enclave& target =
            (service.instances[0]->placement() == home.id()) ? spare : home;
        coordinator.migrate(*service.instances[0], target);
        std::this_thread::sleep_for(50ms);
      }
    });
    migrating.push_back(window());
    stop.store(true);
    mover.join();
    ratios.push_back(baseline.back() > 0 ? migrating.back() / baseline.back()
                                         : 0.0);
  }
  rt.stop();
  const ea::util::BenchPercentiles xmpp_pcts =
      percentiles(coordinator.pause_hist());
  const std::uint64_t forced_moves = coordinator.stats().completed;
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  const double ratio = median(ratios);
  const auto [ratio_min, ratio_max] =
      std::minmax_element(ratios.begin(), ratios.end());

  ea::bench::row("migrate", "xmpp_echo.baseline", 1, median(baseline),
                 "pairs/s");
  ea::bench::row("migrate", "xmpp_echo.migrating", 1, median(migrating),
                 "pairs/s");
  report.add("xmpp_echo", "baseline", 1, median(baseline), "pairs/s");
  report.add("xmpp_echo", "migrating", 1, median(migrating), "pairs/s");
  report.add("xmpp_echo", "ratio", 1, ratio, "migrating/baseline");
  report.add("xmpp_echo", "ratio_min", 1, *ratio_min, "migrating/baseline");
  report.add("xmpp_echo", "ratio_max", 1, *ratio_max, "migrating/baseline");
  report.add("xmpp_echo", "forced_pause", 1,
             static_cast<double>(forced_moves), "moves", xmpp_pcts);

  if (!ea::bench::write_report(report)) return 1;
  ea::bench::note("xmpp echo under ~20 moves/s of forced migration: median "
                  "%.1f%% of the paired baseline (min %.1f%%, max %.1f%%, "
                  "%d pairs, %llu moves)",
                  100.0 * ratio, 100.0 * *ratio_min, 100.0 * *ratio_max,
                  kPairs, static_cast<unsigned long long>(forced_moves));
  return 0;
}

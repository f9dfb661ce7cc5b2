// Batched message plane: quantifies the burst APIs introduced with the
// contention-free messaging work against their one-at-a-time counterparts.
//
//   mbox       — push/pop vs push_chain/pop_burst on one shared MPMC mbox,
//                w producers + w consumers;
//   channel    — per-message send/recv over an encrypted cross-enclave
//                channel (ChaCha20-Poly1305), one channel pair per worker;
//   transition — one ECall per message vs one ECall per batch (the enclave
//                transition amortisation the paper's design is built on);
//   pool       — get/put churn with per-thread magazines vs the bare
//                shared LIFO.
//
// Prints the usual CSV rows and, when EA_BENCH_JSON names a path, writes a
// machine-readable report there (the committed one is BENCH_batching.json).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "concurrent/arena.hpp"
#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/channel.hpp"
#include "sgxsim/enclave.hpp"
#include "sgxsim/transition.hpp"
#include "util/bench_report.hpp"

namespace {

using namespace ea;

constexpr std::size_t kMsgBytes = 64;
constexpr std::size_t kBurst = 16;
constexpr std::size_t kWorkerCounts[] = {1, 2, 4, 8};

double run_seconds() {
  return std::max(0.02, bench::seconds_per_point() * 0.5);
}

// --- mbox: w producers + w consumers on one shared mbox ---------------------

double run_mbox(std::size_t workers, bool burst) {
  concurrent::NodeArena arena(workers * 64, kMsgBytes);
  concurrent::Pool pool;
  pool.adopt(arena);
  concurrent::Mbox mbox;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> consumed{0};

  auto producer = [&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (burst) {
        concurrent::ChainBuilder chain;
        for (std::size_t i = 0; i < kBurst; ++i) {
          concurrent::Node* n = pool.get();
          if (n == nullptr) break;
          std::memset(n->payload(), 0xab, kMsgBytes);
          n->size = kMsgBytes;
          chain.append(n);
        }
        if (chain.empty()) {
          std::this_thread::yield();
          continue;
        }
        chain.flush_into(mbox);
      } else {
        concurrent::Node* n = pool.get();
        if (n == nullptr) {
          std::this_thread::yield();
          continue;
        }
        std::memset(n->payload(), 0xab, kMsgBytes);
        n->size = kMsgBytes;
        mbox.push(n);
      }
    }
  };
  auto consumer = [&] {
    std::uint64_t local = 0;
    while (!stop.load(std::memory_order_relaxed) || !mbox.empty()) {
      if (burst) {
        concurrent::Node* out[kBurst];
        std::size_t got = mbox.pop_burst(out, kBurst);
        if (got == 0) {
          std::this_thread::yield();
          continue;
        }
        for (std::size_t i = 0; i < got; ++i) pool.put(out[i]);
        local += got;
      } else {
        concurrent::Node* n = mbox.pop();
        if (n == nullptr) {
          std::this_thread::yield();
          continue;
        }
        pool.put(n);
        ++local;
      }
    }
    consumed.fetch_add(local, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  bench::Timer timer;
  for (std::size_t i = 0; i < workers; ++i) threads.emplace_back(producer);
  for (std::size_t i = 0; i < workers; ++i) threads.emplace_back(consumer);
  while (timer.seconds() < run_seconds()) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  double secs = timer.seconds();
  return static_cast<double>(consumed.load()) / secs;
}

// --- channel: encrypted cross-enclave transfer, one pair per worker ---------

// Channel messages are small control messages — 16 B, the smallest message
// size of the paper's ping-pong figure — where per-message costs dominate.
constexpr std::size_t kChanMsgBytes = 16;
constexpr std::size_t kChanWindow = 128;

double run_channel(std::size_t workers) {
  auto& mgr = sgxsim::EnclaveManager::instance();
  std::vector<std::unique_ptr<concurrent::NodeArena>> arenas;
  std::vector<std::unique_ptr<concurrent::Pool>> pools;
  std::vector<std::unique_ptr<core::Channel>> channels;
  std::vector<core::ChannelEnd*> tx, rx;
  for (std::size_t i = 0; i < workers; ++i) {
    arenas.push_back(std::make_unique<concurrent::NodeArena>(256, 4096));
    pools.push_back(std::make_unique<concurrent::Pool>());
    pools[i]->adopt(*arenas[i]);
    channels.push_back(std::make_unique<core::Channel>(
        "bench.batching." + std::to_string(i), core::ChannelOptions{},
        *pools[i]));
    sgxsim::Enclave& a =
        mgr.create("bench.batching.a" + std::to_string(i));
    sgxsim::Enclave& b =
        mgr.create("bench.batching.b" + std::to_string(i));
    tx.push_back(channels[i]->connect(a.id()));
    rx.push_back(channels[i]->connect(b.id()));
  }
  if (!channels.empty() && !channels[0]->encrypted()) {
    bench::note("WARNING: channel did not come up encrypted");
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total{0};

  // Each worker owns both ends of its channel and alternates between
  // filling a send window and draining it — a deterministic measurement of
  // the CPU work per message that is not at the mercy of how the scheduler
  // interleaves sender/receiver threads.
  std::vector<std::thread> threads;
  bench::Timer timer;
  for (std::size_t i = 0; i < workers; ++i) {
    threads.emplace_back([&, i] {
      std::uint8_t payload[kChanMsgBytes];
      std::memset(payload, 0x5a, sizeof(payload));
      std::uint64_t local = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        std::size_t sent = 0;
        while (sent < kChanWindow &&
               tx[i]->send(std::span<const std::uint8_t>(payload,
                                                         kChanMsgBytes))) {
          ++sent;
        }
        std::size_t drained = 0;
        while (drained < sent) {
          if (rx[i]->recv()) ++drained;
        }
        local += sent;
      }
      total.fetch_add(local, std::memory_order_relaxed);
    });
  }
  while (timer.seconds() < run_seconds()) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  double secs = timer.seconds();

  channels.clear();
  pools.clear();
  arenas.clear();
  mgr.reset_for_testing();
  return static_cast<double>(total.load()) / secs;
}

// --- transition: ECall-per-message vs ECall-per-batch -----------------------

double run_transition(std::size_t batch_size) {
  auto& mgr = sgxsim::EnclaveManager::instance();
  sgxsim::Enclave& e = mgr.create("bench.batching.transition");
  std::uint8_t msg[kMsgBytes];
  std::memset(msg, 0x17, sizeof(msg));

  std::uint64_t processed = 0, sink = 0;
  auto work_one = [&] {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kMsgBytes; ++i) sum += msg[i];
    sink += sum;
  };

  bench::Timer timer;
  while (timer.seconds() < run_seconds()) {
    if (batch_size <= 1) {
      for (std::size_t i = 0; i < kBurst; ++i) sgxsim::ecall(e, work_one);
      processed += kBurst;
    } else {
      sgxsim::ecall(e, [&] {
        for (std::size_t i = 0; i < batch_size; ++i) work_one();
      });
      processed += batch_size;
    }
  }
  double secs = timer.seconds();
  if (sink == 0) bench::note("unexpected zero checksum");
  mgr.reset_for_testing();
  return static_cast<double>(processed) / secs;
}

// --- pool: get/put churn, magazines vs bare shared LIFO ---------------------

double run_pool(std::size_t workers, bool magazines) {
  concurrent::NodeArena arena(workers * 64, kMsgBytes);
  concurrent::Pool pool(magazines);
  pool.adopt(arena);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> cycled{0};

  auto churn = [&] {
    std::uint64_t local = 0;
    concurrent::Node* held[8];
    while (!stop.load(std::memory_order_relaxed)) {
      std::size_t got = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        concurrent::Node* n = pool.get();
        if (n == nullptr) break;
        held[got++] = n;
      }
      for (std::size_t i = 0; i < got; ++i) pool.put(held[i]);
      local += got;
      if (got == 0) std::this_thread::yield();
    }
    cycled.fetch_add(local, std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  bench::Timer timer;
  for (std::size_t i = 0; i < workers; ++i) threads.emplace_back(churn);
  while (timer.seconds() < run_seconds()) std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  double secs = timer.seconds();
  return static_cast<double>(cycled.load()) / secs;
}

}  // namespace

int main() {
  bench::csv_header();
  util::BenchReport report("batching");

  double mbox_ratio4 = 0;
  for (std::size_t w : kWorkerCounts) {
    double per_node = run_mbox(w, /*burst=*/false);
    double burst = run_mbox(w, /*burst=*/true);
    bench::row("batching", "mbox.per_node", static_cast<double>(w), per_node,
               "msg/s");
    bench::row("batching", "mbox.burst", static_cast<double>(w), burst,
               "msg/s");
    report.add("mbox", "per_node", static_cast<double>(w), per_node, "msg/s");
    report.add("mbox", "burst", static_cast<double>(w), burst, "msg/s");
    if (w == 4) mbox_ratio4 = burst / per_node;
  }

  // The encrypted-channel series seals every 16 B message with
  // ChaCha20-Poly1305 and so pays the full AEAD setup per message —
  // Poly1305 key derivation, MAC init/finalise.
  for (std::size_t w : kWorkerCounts) {
    double per_msg = run_channel(w);
    bench::row("batching", "channel_enc.per_msg", static_cast<double>(w),
               per_msg, "msg/s");
    report.add("channel_enc", "per_msg", static_cast<double>(w), per_msg,
               "msg/s");
  }

  {
    double per_msg = run_transition(1);
    bench::row("batching", "transition.ecall_per_msg", 1, per_msg, "msg/s");
    report.add("transition", "ecall_per_msg", 1, per_msg, "msg/s");
    for (std::size_t b : {std::size_t{4}, std::size_t{16}, std::size_t{64}}) {
      double batched = run_transition(b);
      bench::row("batching", "transition.ecall_per_batch",
                 static_cast<double>(b), batched, "msg/s");
      report.add("transition", "ecall_per_batch", static_cast<double>(b),
                 batched, "msg/s");
    }
  }

  for (std::size_t w : kWorkerCounts) {
    double shared = run_pool(w, /*magazines=*/false);
    double magazine = run_pool(w, /*magazines=*/true);
    bench::row("batching", "pool.shared", static_cast<double>(w), shared,
               "msg/s");
    bench::row("batching", "pool.magazine", static_cast<double>(w), magazine,
               "msg/s");
    report.add("pool", "shared", static_cast<double>(w), shared, "msg/s");
    report.add("pool", "magazine", static_cast<double>(w), magazine, "msg/s");
  }

  if (!bench::write_report(report)) return 1;
  bench::note("burst/per-node at 4 workers: mbox %.2fx", mbox_ratio4);
  return 0;
}

// Concurrency suite for the sharded POS write path (DESIGN.md §11): the
// sharded free lists with work-stealing refill, the per-thread entry
// magazines, and the lock-free bucket push, exercised together under
// ThreadSanitizer (`ctest -L tsan`). The load-bearing invariant is
// conservation: entry slots only ever move between the bucket chains, the
// shard free lists, the cleaner's retirement batches, and the magazines —
// never duplicated, never lost.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "crypto/rng.hpp"
#include "pos/pos.hpp"
#include "str_cat.hpp"
#include "util/bytes.hpp"

namespace ea::pos {
namespace {

using util::Bytes;
using util::to_bytes;
using test::str_cat;

PosOptions sharded_options(int magazines) {
  PosOptions options;
  options.entry_count = 2048;
  options.bucket_count = 64;
  options.entry_payload = 64;
  options.free_shards = 8;
  options.magazines = magazines;
  return options;
}

std::span<const std::uint8_t> key_bytes(std::uint64_t k,
                                        std::uint8_t (&buf)[8]) {
  std::memcpy(buf, &k, sizeof(k));
  return {buf, sizeof(buf)};
}

// Quiescent conservation: every entry slot is accounted for exactly once.
// The stats snapshot is taken under a quiesced retire lock, so the state
// scan partitions the slots exactly — live + outdated (not yet gathered) +
// retired (gathered, waiting out the epoch horizon) + free == entry_count —
// and every Free slot must be reachable, from a shard free list or from a
// magazine.
void expect_conserved(const Pos& store, std::uint32_t entry_count) {
  const PosStats stats = store.stats();
  EXPECT_EQ(stats.live + stats.outdated + stats.retired + stats.free,
            entry_count);
  EXPECT_EQ(stats.free, stats.free_listed + stats.in_magazine);
}

// --- cross-shard stealing ---------------------------------------------------

// One thread's home shard holds only entry_count / free_shards entries;
// allocating the whole store from a single thread therefore forces the
// refill path to steal from every other shard.
TEST(PosSharding, SingleThreadAllocatesAcrossAllShards) {
  for (int magazines : {0, 1}) {
    PosOptions options = sharded_options(magazines);
    options.entry_count = 64;
    Pos store(options);
    ASSERT_EQ(store.free_shard_count(), 8u);
    std::uint8_t buf[8];
    for (std::uint64_t k = 0; k < 64; ++k) {
      EXPECT_TRUE(store.set(key_bytes(k, buf), to_bytes("v")))
          << "magazines=" << magazines << " k=" << k;
    }
    // Entirely allocated: nothing free anywhere, and a further set fails.
    EXPECT_FALSE(store.set(key_bytes(999, buf), to_bytes("v")));
    const PosStats stats = store.stats();
    EXPECT_EQ(stats.live, 64u);
    EXPECT_EQ(stats.free, 0u);
  }
}

// --- mode equivalence -------------------------------------------------------

// The same deterministic op sequence must produce the same visible store
// contents in all three ablation modes (and match a std::map model).
TEST(PosSharding, ModesAreObservationallyEquivalent) {
  struct ModeCfg {
    std::uint32_t free_shards;
    int magazines;
  };
  const ModeCfg cfgs[] = {{1, 0}, {8, 0}, {8, 1}};
  std::map<std::uint64_t, std::string> model;
  std::vector<std::unique_ptr<Pos>> stores;
  for (const ModeCfg& cfg : cfgs) {
    PosOptions options = sharded_options(cfg.magazines);
    options.free_shards = cfg.free_shards;
    stores.push_back(std::make_unique<Pos>(options));
  }

  crypto::FastRng rng(0xfeedface);
  std::uint8_t buf[8];
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t k = rng.next_below(64);
    const std::uint64_t op = rng.next_below(10);
    if (op < 6) {
      const std::string v = str_cat("v", i);
      model[k] = v;
      for (auto& s : stores) ASSERT_TRUE(s->set(key_bytes(k, buf), to_bytes(v)));
    } else if (op < 8) {
      model.erase(k);
      for (auto& s : stores) s->erase(key_bytes(k, buf));
    } else {
      for (auto& s : stores) {
        auto got = s->get(key_bytes(k, buf));
        auto want = model.find(k);
        if (want == model.end()) {
          EXPECT_FALSE(got.has_value());
        } else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(util::to_string(*got), want->second);
        }
      }
    }
  }
  for (std::uint64_t k = 0; k < 64; ++k) {
    auto want = model.find(k);
    for (auto& s : stores) {
      auto got = s->get(key_bytes(k, buf));
      if (want == model.end()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(util::to_string(*got), want->second);
      }
    }
  }
}

// --- concurrent stress ------------------------------------------------------

// set/get/erase from several threads racing a cleaner across all shards.
// Each operation announces its own epoch section internally; every few
// iterations a worker also wraps a batch in an explicit Section to
// exercise the nested-entry path. Conservation must hold once quiescent.
void run_stress(int magazines) {
  PosOptions options = sharded_options(magazines);
  Pos store(options);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 4000;
  constexpr std::uint64_t kKeysPerThread = 24;

  std::atomic<bool> stop_cleaner{false};
  std::thread cleaner([&] {
    while (!stop_cleaner.load(std::memory_order_relaxed)) {
      if (store.clean_step() == 0) std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      crypto::FastRng rng(0x5eed0000u + static_cast<std::uint64_t>(t));
      std::uint8_t buf[8];
      const std::uint64_t base = static_cast<std::uint64_t>(t + 1) << 32;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t k = base | rng.next_below(kKeysPerThread);
        const std::uint64_t op = rng.next_below(10);
        // Occasionally pin an epoch across the whole operation: the inner
        // section taken by set/get/erase then nests inside this one.
        std::optional<Pos::Section> outer;
        if (rng.next_below(8) == 0) outer.emplace(store);
        if (op < 5) {
          // May fail transiently when the cleaner is behind; conservation
          // below is what matters.
          store.set(key_bytes(k, buf), to_bytes(str_cat("x", i)));
        } else if (op < 8) {
          auto got = store.get(key_bytes(k, buf));
          if (got.has_value()) {
            EXPECT_FALSE(got->empty());
          }
        } else {
          store.erase(key_bytes(k, buf));
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop_cleaner.store(true, std::memory_order_relaxed);
  cleaner.join();

  // Workers have exited (magazines flushed back and epoch slots released by
  // the thread-exit hooks). Retirement batches may still be waiting out the
  // horizon — conservation must account for them as `retired`.
  expect_conserved(store, options.entry_count);
  EXPECT_EQ(store.epoch_slots_active(), 0u);

  // With every section gone the cleaner can now drain completely: gather
  // the remaining outdated entries, advance past the horizon, flush.
  while (store.clean_step() > 0 || store.stats().retired > 0 ||
         store.stats().outdated > 0) {
  }
  const PosStats drained = store.stats();
  EXPECT_EQ(drained.retired, 0u);
  EXPECT_EQ(drained.outdated, 0u);
  EXPECT_EQ(drained.free_listed + drained.in_magazine + drained.live,
            options.entry_count);
  EXPECT_EQ(drained.reclaim_hazards, 0u);
  expect_conserved(store, options.entry_count);
  ASSERT_EQ(store.integrity_error(), std::nullopt);
}

TEST(PosStress, ConcurrentMutationWithCleaner) { run_stress(1); }

TEST(PosStress, ConcurrentMutationWithCleanerNoMagazines) { run_stress(0); }

// Pure allocation race: all threads hammer distinct-key sets until the
// store is exhausted. Every successful set consumes exactly one slot (a
// double-allocation would corrupt a bucket chain, which integrity_error()
// rejects), so live must equal the success count and live + free must equal
// the capacity. Without magazines every slot is used; with magazines a
// thread may run out of attempts while still holding stock, so a small
// bounded remainder can flow back to the free lists at thread exit.
TEST(PosStress, ExhaustionIsExact) {
  for (int magazines : {0, 1}) {
    PosOptions options = sharded_options(magazines);
    options.entry_count = 512;
    Pos store(options);

    constexpr int kThreads = 4;
    std::atomic<std::uint64_t> successes{0};
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&, t] {
        std::uint8_t buf[8];
        const std::uint64_t base = static_cast<std::uint64_t>(t + 1) << 32;
        std::uint64_t mine = 0;
        for (std::uint64_t i = 0; i < 512; ++i) {
          if (store.set(key_bytes(base | i, buf), to_bytes("y"))) ++mine;
        }
        successes.fetch_add(mine, std::memory_order_relaxed);
      });
    }
    for (std::thread& w : workers) w.join();

    const std::uint64_t won = successes.load();
    const PosStats stats = store.stats();
    EXPECT_EQ(stats.live, won) << "magazines=" << magazines;
    EXPECT_EQ(stats.live + stats.free, 512u);
    EXPECT_EQ(stats.free, stats.free_listed + stats.in_magazine);
    if (magazines == 0) {
      EXPECT_EQ(won, 512u);
    } else {
      EXPECT_GE(won, 512u - kThreads * kPosMagazineCapacity);
    }
    ASSERT_EQ(store.integrity_error(), std::nullopt);
  }
}

}  // namespace
}  // namespace ea::pos

// Epoch-based reclamation suite for the POS (ctest labels: pos, tsan).
//
// DESIGN.md §15: every bucket-chain traversal runs inside an epoch Section;
// the cleaner gathers superseded versions into epoch-tagged retirement
// batches, advances the global epoch only past quiescent announcements, and
// frees a batch two epochs after its retirement. These tests pin the
// protocol's observable guarantees — epoch monotonicity (including across
// persist + reopen), no free before quiescence, a stuck reader bounding the
// epoch but not the writers, slot recycling at thread exit — and close with
// a differential test: a concurrent store under randomized interleavings
// must agree, per disjoint key range, with a sequential std::map replay.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "crypto/rng.hpp"
#include "pos/pos.hpp"
#include "str_cat.hpp"
#include "util/bytes.hpp"

namespace ea::pos {
namespace {

using util::to_bytes;
using test::str_cat;

PosOptions epoch_options() {
  PosOptions o;
  o.bucket_count = 16;
  o.entry_count = 1024;
  o.entry_payload = 64;
  o.free_shards = 4;
  return o;
}

bool set_str(Pos& pos, const std::string& k, const std::string& v) {
  return pos.set(to_bytes(k), to_bytes(v));
}

// --- monotonicity -----------------------------------------------------------

TEST(PosEpoch, EpochNeverDecreasesAndAdvancesWhenQuiescent) {
  Pos store(epoch_options());
  std::uint64_t last = store.reclaim_epoch();
  EXPECT_GE(last, 1u);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(set_str(store, str_cat("k", i % 8), str_cat("v", i)));
    if (i % 4 == 0) store.clean_step();
    const std::uint64_t now = store.reclaim_epoch();
    EXPECT_GE(now, last);
    last = now;
  }
  // With no thread inside a section, every step's advance must succeed.
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t before = store.reclaim_epoch();
    store.clean_step();
    EXPECT_EQ(store.reclaim_epoch(), before + 1);
  }
}

TEST(PosEpoch, EpochSurvivesPersistAndReopen) {
  const std::string path =
      "/tmp/ea_epoch_" + std::to_string(::getpid()) + ".img";
  ::unlink(path.c_str());
  std::uint64_t at_close = 0;
  {
    PosOptions o = epoch_options();
    o.path = path;
    Pos store(o);
    ASSERT_TRUE(set_str(store, "a", "v1"));
    ASSERT_TRUE(set_str(store, "a", "v2"));
    for (int i = 0; i < 6; ++i) store.clean_step();
    ASSERT_TRUE(store.persist());
    at_close = store.reclaim_epoch();
    EXPECT_GT(at_close, 1u);
  }
  {
    PosOptions o;
    o.path = path;
    Pos store(o);
    // The reclamation epoch rides in the superblock: a reopened store never
    // restarts the clock behind where the flushed image left it.
    EXPECT_GE(store.reclaim_epoch(), at_close);
    EXPECT_EQ(store.stats().reclaim_epoch, store.reclaim_epoch());
    EXPECT_EQ(util::to_string(*store.get(to_bytes("a"))), "v2");
  }
  ::unlink(path.c_str());
}

// --- no free before quiescence ----------------------------------------------

TEST(PosEpoch, NothingIsFreedWhileASectionIsPinned) {
  Pos store(epoch_options());
  ASSERT_TRUE(set_str(store, "key", "v1"));
  ASSERT_TRUE(set_str(store, "key", "v2"));

  store.epoch_enter();
  const std::uint64_t free_before = store.stats().free;
  for (int round = 0; round < 20; ++round) {
    EXPECT_EQ(store.clean_step(), 0u);
    const PosStats s = store.stats();
    EXPECT_EQ(s.free, free_before);
    EXPECT_EQ(s.reclaim_hazards, 0u);
  }
  EXPECT_EQ(store.stats().retired, 1u);
  store.epoch_leave();

  EXPECT_EQ(store.clean_step(), 1u);
  const PosStats s = store.stats();
  EXPECT_EQ(s.retired, 0u);
  EXPECT_EQ(s.free, free_before + 1);
  EXPECT_EQ(s.reclaim_hazards, 0u);
}

// --- stuck reader: stalls reclamation, not writers --------------------------

TEST(PosEpoch, StuckReaderBoundsTheEpochButNotTheWriters) {
  Pos store(epoch_options());
  ASSERT_TRUE(set_str(store, "key", "v1"));
  ASSERT_TRUE(set_str(store, "key", "v2"));

  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  std::thread parked([&] {
    Pos::Section section(store);
    entered.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // The parked section announced epoch e. One advance (e -> e+1) may still
  // pass — the announcement matches the epoch being left — but the advance
  // that would cross the safety horizon is blocked for as long as the
  // section lives.
  const std::uint64_t pinned = store.reclaim_epoch();
  for (int round = 0; round < 20; ++round) {
    store.clean_step();
    EXPECT_LE(store.reclaim_epoch(), pinned + 1);
  }
  EXPECT_GE(store.stats().retired, 1u);

  // Writers are not reader-blocked: sets (including overwrites that retire
  // further versions) keep succeeding against the stalled cleaner.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(set_str(store, str_cat("w", i % 32), str_cat("x", i)))
        << "writer stalled by a parked reader at i=" << i;
  }

  release.store(true, std::memory_order_release);
  parked.join();

  // With the section gone the backlog drains and the epoch moves again.
  const std::uint64_t before = store.reclaim_epoch();
  std::uint64_t freed = 0;
  for (int i = 0; i < 4; ++i) freed += store.clean_step();
  EXPECT_GT(freed, 0u);
  EXPECT_GT(store.reclaim_epoch(), before);
  EXPECT_EQ(store.stats().reclaim_hazards, 0u);
}

// --- thread exit recycles the announcement slot -----------------------------

TEST(PosEpoch, ThreadExitReleasesItsEpochSlot) {
  Pos store(epoch_options());
  const std::size_t claimed_before = store.epoch_slots_claimed();

  std::size_t claimed_inside = 0;
  std::thread t([&] {
    Pos::Section section(store);
    claimed_inside = store.epoch_slots_claimed();
  });
  t.join();
  EXPECT_EQ(claimed_inside, claimed_before + 1);
  EXPECT_EQ(store.epoch_slots_claimed(), claimed_before);
  EXPECT_EQ(store.epoch_slots_active(), 0u);

  // The real point of recycling: far more threads than kMaxEpochSlots may
  // pass through the store over its lifetime, as long as they do not hold
  // sections *concurrently*. The grace-counter design burned a slot per
  // thread forever and would have thrown here.
  for (std::size_t i = 0; i < kMaxEpochSlots + 16; ++i) {
    std::thread worker([&store, i] {
      ASSERT_TRUE(store.set(to_bytes(str_cat("t", i)), to_bytes("v")));
    });
    worker.join();
    EXPECT_LE(store.epoch_slots_claimed(), claimed_before + 1);
  }
}

// --- differential: concurrent EBR store vs sequential reference -------------
//
// Worker threads operate on disjoint key ranges and journal every operation
// with its observed outcome. Because keys are disjoint and the store is
// linearisable per key, each thread's journal must replay exactly against a
// sequential std::map — any reclamation bug (freeing a version a reader
// still walks, resurrecting a freed slot into the wrong chain) shows up as
// a journal/model divergence or a hazard. The cleaner runs concurrently
// throughout, and workers open randomized explicit Sections so reclamation
// is constantly straddled by pinned epochs.
TEST(PosEpoch, DifferentialModelUnderRandomizedInterleavings) {
  constexpr int kThreads = 3;
  constexpr int kOpsPerThread = 1500;
  constexpr int kKeysPerThread = 16;

  struct Op {
    char kind;               // 's' | 'g' | 'e'
    int key;
    std::string value;       // sets only
    bool ok;                 // set/erase return
    std::optional<std::string> got;  // gets only
  };

  Pos store(epoch_options());
  std::vector<std::vector<Op>> journals(kThreads);

  std::atomic<bool> stop_cleaner{false};
  std::thread cleaner([&] {
    std::uint64_t last_epoch = store.reclaim_epoch();
    while (!stop_cleaner.load(std::memory_order_relaxed)) {
      if (store.clean_step() == 0) std::this_thread::yield();
      const std::uint64_t now = store.reclaim_epoch();
      EXPECT_GE(now, last_epoch);  // monotone under full concurrency
      last_epoch = now;
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      crypto::FastRng rng(0xd1ff0000u + static_cast<std::uint64_t>(t));
      std::vector<Op>& journal = journals[static_cast<std::size_t>(t)];
      journal.reserve(kOpsPerThread);
      for (int i = 0; i < kOpsPerThread; ++i) {
        const int k = static_cast<int>(rng.next_below(kKeysPerThread));
        const std::string key = str_cat("t", t, "-k", k);
        std::optional<Pos::Section> outer;
        if (rng.next_below(4) == 0) outer.emplace(store);
        const std::uint64_t dice = rng.next_below(10);
        if (dice < 5) {
          const std::string value =
              std::to_string(t) + ":" + std::to_string(i);
          const bool ok = set_str(store, key, value);
          journal.push_back({'s', k, value, ok, std::nullopt});
        } else if (dice < 8) {
          auto raw = store.get(to_bytes(key));
          std::optional<std::string> got;
          if (raw.has_value()) got = util::to_string(*raw);
          journal.push_back({'g', k, "", true, std::move(got)});
        } else {
          const bool ok = store.erase(to_bytes(key));
          journal.push_back({'e', k, "", ok, std::nullopt});
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  stop_cleaner.store(true, std::memory_order_relaxed);
  cleaner.join();

  // Sequential replay: each journal against its own reference map.
  for (int t = 0; t < kThreads; ++t) {
    std::map<int, std::string> model;
    const auto& journal = journals[static_cast<std::size_t>(t)];
    for (std::size_t i = 0; i < journal.size(); ++i) {
      const Op& op = journal[i];
      if (op.kind == 's') {
        if (op.ok) model[op.key] = op.value;
        // A failed set (store transiently full) must leave the key as-is;
        // nothing to update.
      } else if (op.kind == 'e') {
        EXPECT_EQ(op.ok, model.count(op.key) != 0)
            << "thread " << t << " op " << i << ": erase outcome diverged";
        model.erase(op.key);
      } else {
        const auto want = model.find(op.key);
        if (want == model.end()) {
          EXPECT_FALSE(op.got.has_value())
              << "thread " << t << " op " << i << ": read resurrected key k"
              << op.key << " -> " << *op.got;
        } else {
          ASSERT_TRUE(op.got.has_value())
              << "thread " << t << " op " << i << ": read lost key k"
              << op.key << " (model " << want->second << ")";
          EXPECT_EQ(*op.got, want->second)
              << "thread " << t << " op " << i << ": stale or torn read";
        }
      }
    }
    // The quiescent store must agree with each model's final state.
    for (const auto& [k, v] : model) {
      const std::string key = str_cat("t", t, "-k", k);
      auto raw = store.get(to_bytes(key));
      ASSERT_TRUE(raw.has_value()) << "final state lost " << key;
      EXPECT_EQ(util::to_string(*raw), v) << "final state diverged on " << key;
    }
  }

  // No walk ever stepped on a freed entry, and the backlog fully drains.
  EXPECT_EQ(store.stats().reclaim_hazards, 0u);
  while (store.clean_step() > 0 || store.stats().retired > 0 ||
         store.stats().outdated > 0) {
  }
  const PosStats s = store.stats();
  EXPECT_EQ(s.retired, 0u);
  EXPECT_EQ(s.live + s.free, epoch_options().entry_count);
  ASSERT_EQ(store.integrity_error(), std::nullopt);
}

}  // namespace
}  // namespace ea::pos

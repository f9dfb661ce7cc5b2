// POS write-path scaling: quantifies the sharded free lists, the per-thread
// entry magazines, and the lock-free bucket push against the original
// single-global-free-lock design (DESIGN.md §11).
//
//   set     — a fixed total of distinct-key inserts split across w threads:
//             the pure allocation + publish path the sharding targets. Runs
//             against a *churned* store (fill, erase, cleaner-drain) so the
//             free lists are hash-scrambled the way a long-lived store's
//             are — each pop then takes its cache miss while holding the
//             free lock, which is the contention shape that matters; a
//             freshly initialised sequential free list flatters the global
//             lock and hides exactly the effect under test;
//   get     — read hammering over a prefilled keyspace (the lock-free read
//             path must not regress in any mode);
//   mixed   — 1 overwrite per 4 gets over a shared keyspace;
//   cleaner — timed overwrite churn with a concurrent cleaner thread
//             recycling outdated versions through the epoch-reclamation
//             pipeline, plus clean-on-pressure: writers that outrun the
//             cleaner run reclamation steps inline instead of spinning on
//             a full store (safe under EBR — any thread may clean — and
//             impossible under the old grace counters, where a writer
//             would have waited on its own counter).
//
// `bench_pos --smoke` runs the cleaner scenario only, with a pinned
// per-point window independent of EA_BENCH_SECONDS — the perf-regression
// guard in scripts/check.sh diffs its rows against the committed
// BENCH_pos.json.
//
// The total op count per scenario is fixed as the thread count sweeps, so
// every point touches the same footprint and only contention varies.
//
// Modes (all from one binary via PosOptions ablation toggles):
//   global      — free_shards=1, magazines off: the pre-sharding design;
//   sharded     — free_shards=8, magazines off;
//   sharded_mag — free_shards=8, magazines on.
//
// The shard count is pinned to 8 (not hardware_concurrency) so the sweep is
// comparable across hosts — including 1-core CI boxes, where the collapse
// of the global mode under oversubscription is exactly the effect measured.
//
// Prints the usual CSV rows and, when EA_BENCH_JSON names a path, writes a
// machine-readable report there (the committed one is BENCH_pos.json).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "crypto/rng.hpp"
#include "pos/pos.hpp"
#include "util/bench_report.hpp"

namespace {

using namespace ea;

constexpr std::size_t kWorkerCounts[] = {1, 2, 4, 8};

struct Mode {
  const char* name;
  std::uint32_t free_shards;
  int magazines;
};

constexpr Mode kModes[] = {
    {"global", 1, 0},
    {"sharded", 8, 0},
    {"sharded_mag", 8, 1},
};

// --smoke: cleaner scenario only, fixed window (see header comment).
bool g_smoke = false;

double run_seconds() {
  if (g_smoke) return 0.25;
  return std::max(0.02, bench::seconds_per_point() * 0.5);
}

pos::PosOptions store_options(const Mode& mode, std::uint32_t entry_count,
                              std::uint32_t bucket_count) {
  pos::PosOptions o;  // anonymous mapping: the bench measures the data path
  o.bucket_count = bucket_count;
  o.entry_count = entry_count;
  o.entry_payload = 32;
  o.free_shards = mode.free_shards;
  o.magazines = mode.magazines;
  return o;
}

std::span<const std::uint8_t> key_bytes(std::uint64_t k,
                                        std::uint8_t (&buf)[8]) {
  std::memcpy(buf, &k, sizeof(k));
  return {buf, sizeof(buf)};
}

// Spawns `threads` workers running body(t), releases them together, and
// returns the wall seconds from release to the last join.
template <typename Body>
double timed_threads(std::size_t threads, Body&& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body(t);
    });
  }
  bench::Timer timer;
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  return timer.seconds();
}

// --- set: distinct-key inserts, the pure allocation + publish path ----------

// Total inserts measured per point; split evenly across the thread sweep.
// Sized so the store dwarfs the caches and each thread's share spans many
// scheduler quanta — the regime where free-lock contention actually shows.
std::uint64_t set_total() {
  const std::uint64_t t = bench::scaled(1600000, 512);
  return (t + 7) & ~std::uint64_t{7};  // divisible by every swept count
}

// Ages the store: fills every entry, erases everything, and drives the
// cleaner until the free lists hold the full capacity again. Erasing in
// chunks gives the cleaner many gather/advance/flush rounds, so its
// round-robin batch returns spread the recycled entries across all shards —
// and within each shard the entries land in bucket-hash order, i.e.
// scrambled relative to memory. Leaves every bucket chain empty.
void churn(pos::Pos& store, std::uint64_t entries) {
  std::uint8_t kbuf[8];
  std::uint8_t value[16];
  std::memset(value, 0xaa, sizeof(value));
  for (std::uint64_t k = 0; k < entries; ++k) {
    store.set(key_bytes(k, kbuf), value);
  }
  constexpr std::uint64_t kChunks = 16;
  for (std::uint64_t c = 0; c < kChunks; ++c) {
    const std::uint64_t lo = entries * c / kChunks;
    const std::uint64_t hi = entries * (c + 1) / kChunks;
    for (std::uint64_t k = lo; k < hi; ++k) {
      store.erase(key_bytes(k, kbuf));
    }
    // No sections are live here, so every step advances; a gathered batch
    // frees two steps later, and two consecutive zero-returns mean nothing
    // was left to gather or flush for this chunk.
    std::size_t zeros = 0;
    while (zeros < 2) {
      zeros = store.clean_step() == 0 ? zeros + 1 : 0;
    }
  }
}

double run_set(const Mode& mode, std::size_t threads) {
  const std::uint64_t total = set_total();
  const std::uint64_t per_thread = total / threads;
  const auto entries = static_cast<std::uint32_t>(total + 1024);
  // Load factor ~1 keeps the marking walk to a single hop so the scenario
  // stays allocation-bound rather than chain-scan-bound.
  const auto buckets =
      static_cast<std::uint32_t>(std::max<std::uint64_t>(1024, total));
  pos::Pos store(store_options(mode, entries, buckets));
  churn(store, entries);

  const double secs = timed_threads(threads, [&](std::size_t t) {
    std::uint8_t kbuf[8];
    std::uint8_t value[16];
    std::memset(value, 0x5a, sizeof(value));
    const std::uint64_t base = (static_cast<std::uint64_t>(t) << 32) | (1ull << 63);
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      store.set(key_bytes(base | i, kbuf), value);
    }
  });
  return static_cast<double>(total) / secs;
}

// --- get: read hammering over a prefilled keyspace --------------------------

double run_get(const Mode& mode, std::size_t threads) {
  const std::uint64_t keyspace = bench::scaled(2048, 64);
  const std::uint64_t total = bench::scaled(320000, 512);
  const std::uint64_t per_thread = total / threads;
  const auto buckets = static_cast<std::uint32_t>(
      std::max<std::uint64_t>(1024, keyspace / 2));
  pos::Pos store(store_options(
      mode, static_cast<std::uint32_t>(keyspace + 1024), buckets));

  std::uint8_t kbuf[8];
  std::uint8_t value[16];
  std::memset(value, 0x7e, sizeof(value));
  for (std::uint64_t k = 0; k < keyspace; ++k) {
    store.set(key_bytes(k, kbuf), value);
  }

  const double secs = timed_threads(threads, [&](std::size_t t) {
    crypto::FastRng rng(0x9e3779b9u + static_cast<std::uint64_t>(t));
    std::uint8_t buf[8];
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      store.get(key_bytes(rng.next_below(keyspace), buf));
    }
  });
  return static_cast<double>(per_thread * threads) / secs;
}

// --- mixed: 1 overwrite per 4 gets over a shared keyspace -------------------

double run_mixed(const Mode& mode, std::size_t threads) {
  const std::uint64_t keyspace = 2048;
  const std::uint64_t total = bench::scaled(160000, 512);
  const std::uint64_t per_thread = total / threads;
  // Every 4th op consumes a fresh entry (no cleaner in this scenario); the
  // footprint is independent of the thread count.
  const auto entries = static_cast<std::uint32_t>(total / 4 + keyspace + 1024);
  pos::Pos store(store_options(mode, entries, 4096));

  const double secs = timed_threads(threads, [&](std::size_t t) {
    crypto::FastRng rng(0xc0ffee00u + static_cast<std::uint64_t>(t));
    std::uint8_t kbuf[8];
    std::uint8_t value[16];
    std::memset(value, 0x33, sizeof(value));
    for (std::uint64_t i = 0; i < per_thread; ++i) {
      const std::uint64_t k = rng.next_below(keyspace);
      if (i % 4 == 0) {
        store.set(key_bytes(k, kbuf), value);
      } else {
        store.get(key_bytes(k, kbuf));
      }
    }
  });
  return static_cast<double>(per_thread * threads) / secs;
}

// --- cleaner: overwrite churn against a concurrent cleaner ------------------

double run_cleaner(const Mode& mode, std::size_t threads) {
  const std::uint64_t keyspace = 16;  // per thread; heavy version churn
  pos::PosOptions options = store_options(mode, 8192, 1024);
  // Writers help reclaim when allocation pressure outruns the dedicated
  // cleaner thread — the cooperative mode epoch reclamation makes safe
  // (any thread may clean; grace counters had writers waiting on
  // themselves).
  options.clean_on_pressure = true;
  pos::Pos store(options);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ops{0};
  std::thread cleaner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (store.clean_step() == 0) std::this_thread::yield();
    }
  });

  const double window = run_seconds();
  const double secs = timed_threads(threads, [&](std::size_t t) {
    std::uint8_t kbuf[8];
    std::uint8_t value[16];
    std::memset(value, 0x44, sizeof(value));
    const std::uint64_t base = static_cast<std::uint64_t>(t) << 32;
    std::uint64_t done = 0;
    bench::Timer timer;
    std::uint64_t i = 0;
    while (timer.seconds() < window) {
      const std::uint64_t k = base | (i++ % keyspace);
      if (store.set(key_bytes(k, kbuf), value)) ++done;
    }
    ops.fetch_add(done, std::memory_order_relaxed);
  });
  stop.store(true, std::memory_order_relaxed);
  cleaner.join();
  (void)secs;
  return static_cast<double>(ops.load(std::memory_order_relaxed)) / window;
}

}  // namespace

int main(int argc, char** argv) {
  g_smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::csv_header();
  util::BenchReport report("pos");

  if (g_smoke) {
    for (const Mode& mode : kModes) {
      for (const std::size_t w : kWorkerCounts) {
        const double v = run_cleaner(mode, w);
        bench::row("pos_cleaner", mode.name, static_cast<double>(w), v,
                   "op/s");
        report.add("cleaner", mode.name, static_cast<double>(w), v, "op/s");
      }
    }
    return bench::write_report(report) ? 0 : 1;
  }

  // set throughput per [mode][thread-point], for the trailing ratio note.
  double set_tp[3][4] = {};

  for (std::size_t m = 0; m < 3; ++m) {
    const Mode& mode = kModes[m];
    for (std::size_t wi = 0; wi < 4; ++wi) {
      const std::size_t w = kWorkerCounts[wi];
      const double v = run_set(mode, w);
      set_tp[m][wi] = v;
      bench::row("pos_set", mode.name, static_cast<double>(w), v, "op/s");
      report.add("set", mode.name, static_cast<double>(w), v, "op/s");
    }
  }
  for (const Mode& mode : kModes) {
    for (const std::size_t w : kWorkerCounts) {
      const double v = run_get(mode, w);
      bench::row("pos_get", mode.name, static_cast<double>(w), v, "op/s");
      report.add("get", mode.name, static_cast<double>(w), v, "op/s");
    }
  }
  for (const Mode& mode : kModes) {
    for (const std::size_t w : kWorkerCounts) {
      const double v = run_mixed(mode, w);
      bench::row("pos_mixed", mode.name, static_cast<double>(w), v, "op/s");
      report.add("mixed", mode.name, static_cast<double>(w), v, "op/s");
    }
  }
  for (const Mode& mode : kModes) {
    for (const std::size_t w : kWorkerCounts) {
      const double v = run_cleaner(mode, w);
      bench::row("pos_cleaner", mode.name, static_cast<double>(w), v, "op/s");
      report.add("cleaner", mode.name, static_cast<double>(w), v, "op/s");
    }
  }

  bench::note("set @8 threads: sharded_mag/global = %.2fx (target >= 4x)",
              set_tp[2][3] / set_tp[0][3]);
  bench::note("set @1 thread:  sharded_mag/global = %.2fx (target >= 0.95x)",
              set_tp[2][0] / set_tp[0][0]);

  return bench::write_report(report) ? 0 : 1;
}

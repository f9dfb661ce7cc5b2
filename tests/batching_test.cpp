// Batched message plane tests (ctest label: tsan).
//
// Covers the burst APIs introduced with the contention-free messaging work:
// Mbox::push_chain/pop_burst, ChainBuilder and the pool magazine layer. The
// concurrency tests are property tests — per-producer FIFO and node
// conservation must hold for every interleaving — and are sized to give
// TSan real schedules to check.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "concurrent/arena.hpp"
#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"

namespace {

using ea::concurrent::ChainBuilder;
using ea::concurrent::Mbox;
using ea::concurrent::Node;
using ea::concurrent::NodeArena;
using ea::concurrent::Pool;

constexpr std::uint64_t make_tag(unsigned producer, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(producer) << 48) | seq;
}

// Deterministic per-thread chain/burst length variation (xorshift64).
struct SmallRng {
  std::uint64_t state;
  explicit SmallRng(std::uint64_t seed) : state(seed * 2654435769u + 1) {}
  std::uint64_t next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
};

// Satellite property: chains pushed with push_chain and drained with
// pop_burst (of random lengths, racing singles) preserve per-producer FIFO
// and conserve every node.
TEST(BatchingStress, ChainAndBurstPreserveFifoPerProducer) {
  constexpr unsigned kProducers = 4;
  constexpr unsigned kConsumers = 3;
  constexpr std::uint64_t kPerProducer = 1200;
  constexpr std::size_t kMaxBurst = 16;

  NodeArena arena(256, 64);
  Pool pool;
  pool.adopt(arena);
  Mbox mbox;

  std::atomic<std::uint64_t> consumed{0};
  std::atomic<bool> producers_done{false};
  std::atomic<bool> order_ok{true};

  std::vector<std::thread> threads;
  threads.reserve(kProducers + kConsumers);

  for (unsigned p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      SmallRng rng(p + 1);
      std::uint64_t seq = 0;
      while (seq < kPerProducer) {
        // Random chain length 1..8; length 1 alternates between push and a
        // one-node chain so singles race chains on the same mbox.
        std::size_t want = 1 + rng.next() % 8;
        ChainBuilder chain;
        while (chain.size() < want && seq < kPerProducer) {
          Node* n = pool.get();
          if (n == nullptr) break;
          n->tag = make_tag(p, seq++);
          chain.append(n);
        }
        if (chain.empty()) {
          std::this_thread::yield();
          continue;
        }
        if (chain.size() == 1 && (rng.next() & 1) != 0) {
          Node* n = nullptr;
          std::size_t got = mbox.pop_burst(&n, 0);  // no-op, max=0
          EXPECT_EQ(got, 0u);
        }
        chain.flush_into(mbox);
      }
    });
  }

  for (unsigned c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      SmallRng rng(100 + c);
      std::uint64_t last_seen[kProducers] = {};
      bool seen_any[kProducers] = {};
      Node* burst[kMaxBurst];
      for (;;) {
        std::size_t max = 1 + rng.next() % kMaxBurst;
        std::size_t got = mbox.pop_burst(burst, max);
        if (got == 0) {
          if (producers_done.load(std::memory_order_acquire) && mbox.empty()) {
            break;
          }
          std::this_thread::yield();
          continue;
        }
        for (std::size_t i = 0; i < got; ++i) {
          auto producer = static_cast<unsigned>(burst[i]->tag >> 48);
          std::uint64_t seq = burst[i]->tag & ((1ull << 48) - 1);
          if (seen_any[producer] && seq <= last_seen[producer]) {
            order_ok.store(false, std::memory_order_relaxed);
          }
          last_seen[producer] = seq;
          seen_any[producer] = true;
          pool.put(burst[i]);
        }
        consumed.fetch_add(got, std::memory_order_relaxed);
      }
    });
  }

  for (unsigned p = 0; p < kProducers; ++p) threads[p].join();
  producers_done.store(true, std::memory_order_release);
  for (unsigned c = 0; c < kConsumers; ++c) threads[kProducers + c].join();

  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  EXPECT_TRUE(order_ok.load()) << "per-producer FIFO order violated";
  EXPECT_TRUE(mbox.empty());
  EXPECT_EQ(pool.size(), arena.count());
}

TEST(Batching, MboxLockFreeSizeAndBurstBasics) {
  NodeArena arena(16, 64);
  Pool pool;
  pool.adopt(arena);
  Mbox mbox;

  EXPECT_TRUE(mbox.empty());
  EXPECT_EQ(mbox.size(), 0u);

  ChainBuilder chain;
  for (std::uint64_t i = 0; i < 5; ++i) {
    Node* n = pool.get();
    ASSERT_NE(n, nullptr);
    n->tag = i;
    chain.append(n);
  }
  EXPECT_EQ(chain.size(), 5u);
  chain.flush_into(mbox);
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(mbox.size(), 5u);
  EXPECT_FALSE(mbox.empty());

  // Flushing an empty builder is a no-op.
  chain.flush_into(mbox);
  EXPECT_EQ(mbox.size(), 5u);

  Node* single = pool.get();
  ASSERT_NE(single, nullptr);
  single->tag = 5;
  mbox.push(single);
  EXPECT_EQ(mbox.size(), 6u);

  // Drain with a burst larger than the queue: FIFO across chain + single.
  Node* burst[8];
  std::size_t got = mbox.pop_burst(burst, 8);
  ASSERT_EQ(got, 6u);
  for (std::uint64_t i = 0; i < 6; ++i) {
    EXPECT_EQ(burst[i]->tag, i);
    pool.put(burst[i]);
  }
  EXPECT_TRUE(mbox.empty());
  EXPECT_EQ(mbox.size(), 0u);
  EXPECT_EQ(pool.size(), arena.count());
}

// Pool conservation with the magazine layer on and off, including nodes
// freed by a different thread than the one that allocated them.
TEST(BatchingStress, PoolMagazineConservation) {
  for (bool magazines : {true, false}) {
    constexpr unsigned kThreads = 4;
    constexpr int kIterations = 3000;
    NodeArena arena(64, 64);
    Pool pool(magazines);
    pool.adopt(arena);
    Mbox handoff;  // nodes cross threads so puts hit foreign magazines

    std::atomic<std::uint64_t> moved{0};
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        SmallRng rng(t + 7);
        for (int i = 0; i < kIterations; ++i) {
          if ((rng.next() & 1) != 0) {
            Node* n = pool.get();
            if (n == nullptr) {
              std::this_thread::yield();
              continue;
            }
            handoff.push(n);
          } else if (Node* n = handoff.pop()) {
            pool.put(n);
            moved.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (auto& th : threads) th.join();
    done.store(true);
    while (Node* n = handoff.pop()) pool.put(n);

    EXPECT_GT(moved.load(), 0u);
    EXPECT_TRUE(handoff.empty());
    EXPECT_EQ(pool.size(), arena.count())
        << "magazines=" << magazines
        << ": nodes cached per-thread must be accounted and conserved";
  }
}

}  // namespace

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "concurrent/arena.hpp"
#include "concurrent/hle_lock.hpp"
#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"

namespace ea::concurrent {
namespace {

TEST(Arena, AllocatesRequestedNodes) {
  NodeArena arena(10, 256);
  EXPECT_EQ(arena.count(), 10u);
  EXPECT_EQ(arena.payload_capacity(), 256u);
  for (std::size_t i = 0; i < 10; ++i) {
    Node* n = arena.node(i);
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->capacity, 256u);
    EXPECT_EQ(n->size, 0u);
  }
}

TEST(Arena, NodesAreCacheLineAligned) {
  NodeArena arena(4, 100);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.node(i)) % 64, 0u);
  }
}

TEST(Arena, PayloadsDontOverlap) {
  NodeArena arena(3, 128);
  for (std::size_t i = 0; i < 3; ++i) {
    std::memset(arena.node(i)->payload(), static_cast<int>(i + 1), 128);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(arena.node(i)->payload()[0], i + 1);
    EXPECT_EQ(arena.node(i)->payload()[127], i + 1);
  }
}

TEST(Node, FillTruncatesToCapacity) {
  NodeArena arena(1, 8);
  Node* n = arena.node(0);
  std::string big = "0123456789abcdef";
  EXPECT_EQ(n->fill(big), 8u);
  EXPECT_EQ(n->size, 8u);
  EXPECT_EQ(n->view(), "01234567");
}

TEST(Pool, LifoSemantics) {
  NodeArena arena(3, 64);
  Pool pool;
  Node* a = arena.node(0);
  Node* b = arena.node(1);
  pool.put(a);
  pool.put(b);
  // LIFO: most recently put comes out first.
  EXPECT_EQ(pool.get(), b);
  EXPECT_EQ(pool.get(), a);
  EXPECT_EQ(pool.get(), nullptr);
}

TEST(Pool, AdoptSetsHomeAndCount) {
  NodeArena arena(5, 64);
  Pool pool;
  pool.adopt(arena);
  EXPECT_EQ(pool.size(), 5u);
  Node* n = pool.get();
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->home, &pool);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(Pool, GetResetsNodeState) {
  NodeArena arena(1, 64);
  Pool pool;
  pool.adopt(arena);
  Node* n = pool.get();
  n->fill("hello");
  n->tag = 99;
  pool.put(n);
  Node* again = pool.get();
  EXPECT_EQ(again, n);
  EXPECT_EQ(again->size, 0u);
  EXPECT_EQ(again->tag, 0u);
}

TEST(Pool, NodeLeaseReturnsOnDestruction) {
  NodeArena arena(1, 64);
  Pool pool;
  pool.adopt(arena);
  {
    NodeLease lease(pool.get());
    ASSERT_TRUE(lease);
    EXPECT_TRUE(pool.empty());
  }
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Pool, NodeLeaseReleaseKeepsNodeOut) {
  NodeArena arena(1, 64);
  Pool pool;
  pool.adopt(arena);
  Node* raw = nullptr;
  {
    NodeLease lease(pool.get());
    raw = lease.release();
  }
  EXPECT_TRUE(pool.empty());
  pool.put(raw);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Pool, NodeLeaseMoveSemantics) {
  NodeArena arena(2, 64);
  Pool pool;
  pool.adopt(arena);
  NodeLease a(pool.get());
  NodeLease b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move) — testing moved state
  EXPECT_TRUE(b);
  NodeLease c(pool.get());
  c = std::move(b);
  EXPECT_TRUE(c);
  EXPECT_EQ(pool.size(), 1u);  // the node previously in c went home
}

// A node put by a thread that then exits sits in that thread's magazine
// until the exit flush hands it to the shared list; a get() on another
// thread that finds its own magazine and the shared list empty refills
// from there.
TEST(Pool, GetReturnsNodeFlushedByExitedThread) {
  NodeArena arena(4, 64);
  Pool pool(/*use_magazines=*/true);
  pool.adopt(arena);
  std::vector<Node*> held;
  while (Node* n = pool.get()) held.push_back(n);
  ASSERT_EQ(held.size(), arena.count());

  Node* victim = held.back();
  held.pop_back();
  std::thread([&pool, victim] { pool.put(victim); }).join();
  EXPECT_EQ(pool.get(), victim);
  EXPECT_EQ(pool.get(), nullptr);

  held.push_back(victim);
  for (Node* n : held) pool.put(n);
  EXPECT_EQ(pool.size(), arena.count());
}

TEST(Mbox, FifoSemantics) {
  NodeArena arena(3, 64);
  Mbox mbox;
  mbox.push(arena.node(0));
  mbox.push(arena.node(1));
  mbox.push(arena.node(2));
  EXPECT_EQ(mbox.size(), 3u);
  EXPECT_EQ(mbox.pop(), arena.node(0));
  EXPECT_EQ(mbox.pop(), arena.node(1));
  EXPECT_EQ(mbox.pop(), arena.node(2));
  EXPECT_EQ(mbox.pop(), nullptr);
  EXPECT_TRUE(mbox.empty());
}

TEST(Mbox, InterleavedPushPop) {
  NodeArena arena(4, 64);
  Mbox mbox;
  mbox.push(arena.node(0));
  EXPECT_EQ(mbox.pop(), arena.node(0));
  EXPECT_EQ(mbox.pop(), nullptr);
  mbox.push(arena.node(1));
  mbox.push(arena.node(2));
  EXPECT_EQ(mbox.pop(), arena.node(1));
  mbox.push(arena.node(3));
  EXPECT_EQ(mbox.pop(), arena.node(2));
  EXPECT_EQ(mbox.pop(), arena.node(3));
  EXPECT_TRUE(mbox.empty());
}

TEST(Mbox, PushNullIgnored) {
  Mbox mbox;
  mbox.push(nullptr);
  EXPECT_TRUE(mbox.empty());
}

// Multi-threaded conservation: N producers move nodes pool -> mbox, N
// consumers move them mbox -> pool. No node may be lost or duplicated.
TEST(MboxPool, MultiThreadedConservation) {
  constexpr std::size_t kNodes = 256;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;

  NodeArena arena(kNodes, 64);
  Pool pool;
  pool.adopt(arena);
  Mbox mbox;

  std::atomic<std::uint64_t> transfers{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        if ((i + t) % 2 == 0) {
          if (Node* n = pool.get()) {
            n->tag = static_cast<std::uint64_t>(t);
            mbox.push(n);
            transfers.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          if (Node* n = mbox.pop()) {
            pool.put(n);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  // Drain and count.
  std::size_t in_mbox = 0;
  while (mbox.pop() != nullptr) ++in_mbox;
  std::size_t in_pool = 0;
  std::set<Node*> seen;
  while (Node* n = pool.get()) {
    EXPECT_TRUE(seen.insert(n).second) << "duplicate node in pool";
    ++in_pool;
  }
  EXPECT_EQ(in_mbox + in_pool, kNodes);
  EXPECT_GT(transfers.load(), 0u);
}

TEST(MboxPool, FifoOrderPreservedUnderSingleProducer) {
  NodeArena arena(128, 64);
  Pool pool;
  pool.adopt(arena);
  Mbox mbox;

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < 1000; ++i) {
      Node* n;
      while ((n = pool.get()) == nullptr) {
        std::this_thread::yield();
      }
      n->tag = i;
      mbox.push(n);
    }
  });

  std::uint64_t expected = 0;
  while (expected < 1000) {
    Node* n = mbox.pop();
    if (n == nullptr) {
      std::this_thread::yield();
      continue;
    }
    EXPECT_EQ(n->tag, expected);
    ++expected;
    pool.put(n);
  }
  producer.join();
}

TEST(HleLock, MutualExclusion) {
  HleSpinLock lock;
  std::uint64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        HleGuard guard(lock);
        ++counter;
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, static_cast<std::uint64_t>(kThreads) * kIncrements);
}

class PoolStress : public ::testing::TestWithParam<int> {};

TEST_P(PoolStress, GetPutBalance) {
  const int threads = GetParam();
  NodeArena arena(64, 32);
  Pool pool;
  pool.adopt(arena);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        Node* n = pool.get();
        if (n != nullptr) pool.put(n);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(pool.size(), 64u);
}

INSTANTIATE_TEST_SUITE_P(Threads, PoolStress, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace ea::concurrent

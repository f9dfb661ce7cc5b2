// Pool: a LIFO free-list of empty nodes (paper §3.3).
//
// "A pool is an abstraction which refers to a set of empty nodes … pools
// implement LIFO semantic." LIFO keeps recently-used node payloads hot in
// cache. Thread-safe for any number of concurrent producers/consumers via
// the HLE lock; no system calls are ever made, so pools are enclave-safe.
//
// The shared free-list is fronted by per-thread *magazines*: small
// thread-local node caches refilled from / flushed to the shared LIFO in
// batches of kMagazineBatch, so the steady-state get()/put() path touches
// no shared lock at all (cf. the per-worker free-list caching that lets
// CAF-style actor runtimes scale past a few cores). Pool(false) disables
// the caches and falls back to the pure shared-LIFO path (the ablation
// bench_batching measures).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "concurrent/arena.hpp"
#include "concurrent/hle_lock.hpp"
#include "concurrent/magazine.hpp"
#include "concurrent/node.hpp"

namespace ea::concurrent {

// Nodes a thread may cache per pool. Kept small so tiny test pools cannot
// be starved by caches hoarding the whole arena.
inline constexpr std::size_t kMagazineCapacity = 16;
// Refill/flush batch K: one shared-lock acquisition moves K nodes.
inline constexpr std::size_t kMagazineBatch = 8;
// Distinct pools a single thread can cache for; further pools fall back to
// the shared path (correct, just uncached).
inline constexpr std::size_t kMaxThreadMagazines = 8;

static_assert(kMagazineBatch <= kMagazineCapacity);

class alignas(64) Pool {
 public:
  // Magazines are on by default; benchmarks construct both variants
  // explicitly to quantify their contribution.
  Pool() : Pool(true) {}
  explicit Pool(bool use_magazines);
  // Destruction evicts every magazine still caching for this pool; the
  // cached nodes are dropped (the arena owns their memory and is being
  // torn down alongside the pool).
  ~Pool() = default;
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  // Adopts all nodes of `arena` into the pool and marks them as homed here.
  // Bypasses the magazines: one splice into the shared list.
  void adopt(NodeArena& arena) EA_EXCLUDES(lock_);

  // Pops a free node, or nullptr if the pool is exhausted. The node's size
  // is reset to 0 and its tag cleared (outside any lock). Steady state hits
  // the calling thread's magazine; misses refill kMagazineBatch nodes under
  // a single lock acquisition.
  Node* get() EA_LOCK_NOEXCEPT EA_EXCLUDES(lock_);

  // Pushes a node back. The node must not be linked in any mbox. Steady
  // state hits the magazine; a full magazine flushes kMagazineBatch nodes
  // under a single lock acquisition.
  void put(Node* n) EA_LOCK_NOEXCEPT EA_EXCLUDES(lock_);

  // Approximate number of free nodes — shared list plus every registered
  // magazine (exact when quiescent). Never takes the free-list lock.
  std::size_t size() const noexcept;

  bool empty() const noexcept { return size() == 0; }

  // Nodes ever adopted into this pool (its conservation baseline).
  std::size_t capacity() const noexcept {
    return capacity_.load(std::memory_order_relaxed);
  }

  // get() calls that found the pool empty — the backpressure signal the
  // health snapshot (core/health.hpp) surfaces as pool exhaustion.
  std::uint64_t exhaustions() const noexcept {
    return exhaustions_.load(std::memory_order_relaxed);
  }

 private:
  // The magazine registry / per-thread slot machinery is shared with the
  // POS free lists (concurrent/magazine.hpp); the Node-chain refill and
  // flush batching stays here.
  using Magazines =
      MagazineSet<Node*, kMagazineCapacity, kMaxThreadMagazines>;
  using Magazine = Magazines::Magazine;

  // Shared-LIFO primitives; the critical section is a pointer swap plus a
  // counter update (the list is singly linked via Node::next — prev is
  // only maintained by mboxes).
  Node* shared_get() EA_LOCK_NOEXCEPT EA_EXCLUDES(lock_);
  void shared_put(Node* n) EA_LOCK_NOEXCEPT EA_EXCLUDES(lock_);
  // Splices a private chain (linked via next) of `n` nodes; one lock op.
  void shared_put_chain(Node* head, Node* tail, std::size_t n)
      EA_LOCK_NOEXCEPT EA_EXCLUDES(lock_);

  Magazine* magazine() EA_LOCK_NOEXCEPT;
  std::uint32_t refill(Magazine& mag) EA_LOCK_NOEXCEPT EA_EXCLUDES(lock_);
  void flush(Magazine& mag, std::uint32_t keep) EA_LOCK_NOEXCEPT
      EA_EXCLUDES(lock_);
  // Thread-exit return path: splices a dying thread's cached nodes back
  // (MagazineSet::ReturnFn thunk target).
  void return_cached(Node** items, std::uint32_t count) EA_LOCK_NOEXCEPT
      EA_EXCLUDES(lock_);

  const bool use_magazines_;

  mutable HleSpinLock lock_{LockRank::kPoolShared};
  Node* top_ EA_GUARDED_BY(lock_) = nullptr;
  std::size_t size_ EA_GUARDED_BY(lock_) = 0;  // shared-list population
  // Lock-free probe mirror of size_ (relaxed; see Mbox::count_).
  alignas(64) std::atomic<std::size_t> shared_count_{0};
  std::atomic<std::size_t> capacity_{0};
  std::atomic<std::uint64_t> exhaustions_{0};

  Magazines magazines_;
};

// RAII lease: returns the node to its pool on destruction unless released.
class NodeLease {
 public:
  NodeLease() = default;
  explicit NodeLease(Node* n) noexcept : node_(n) {}
  NodeLease(NodeLease&& other) noexcept : node_(other.node_) {
    other.node_ = nullptr;
  }
  NodeLease& operator=(NodeLease&& other) noexcept {
    if (this != &other) {
      reset();
      node_ = other.node_;
      other.node_ = nullptr;
    }
    return *this;
  }
  NodeLease(const NodeLease&) = delete;
  NodeLease& operator=(const NodeLease&) = delete;
  ~NodeLease() { reset(); }

  Node* get() const noexcept { return node_; }
  Node* operator->() const noexcept { return node_; }
  explicit operator bool() const noexcept { return node_ != nullptr; }

  // Detaches the node (e.g. after handing it to an mbox).
  Node* release() noexcept {
    Node* n = node_;
    node_ = nullptr;
    return n;
  }

  void reset() noexcept;

 private:
  Node* node_ = nullptr;
};

}  // namespace ea::concurrent

#include "concurrent/pool.hpp"

#include "util/failpoint.hpp"

namespace ea::concurrent {

// --- per-thread magazines ---------------------------------------------------
//
// The registry / slot-claim / thread-exit-flush machinery lives in
// concurrent/magazine.hpp (shared with the POS free lists); here only the
// Node-specific batching remains: refill() detaches a batch from the shared
// top, flush() splices the oldest cached nodes back as one chain, and
// return_cached() is the thread-exit path handing a dying thread's nodes
// back so conservation (pool.size() == arena.count() when quiescent) holds
// after join().

Pool::Pool(bool use_magazines) : use_magazines_(use_magazines) {
  magazines_.set_return(
      this, [](void* ctx, Node** items, std::uint32_t count) {
        static_cast<Pool*>(ctx)->return_cached(items, count);
      });
}

void Pool::return_cached(Node** items, std::uint32_t count) EA_LOCK_NOEXCEPT {
  if (count == 0) return;
  // Chain oldest-first so the shared top receives items[0], matching the
  // order flush() would have produced.
  for (std::uint32_t i = 0; i + 1 < count; ++i) {
    items[i]->next = items[i + 1];
  }
  items[count - 1]->next = nullptr;
  shared_put_chain(items[0], items[count - 1], count);
}

void Pool::adopt(NodeArena& arena) {
  if (arena.count() == 0) return;
  capacity_.fetch_add(arena.count(), std::memory_order_relaxed);
  // Build one private chain and splice it in a single lock acquisition.
  Node* head = nullptr;
  Node* tail = nullptr;
  for (std::size_t i = 0; i < arena.count(); ++i) {
    Node* n = arena.node(i);
    n->home = this;
    n->prev = nullptr;
    n->next = head;
    if (head == nullptr) tail = n;
    head = n;
  }
  shared_put_chain(head, tail, arena.count());
}

// --- shared LIFO ------------------------------------------------------------

Node* Pool::shared_get() EA_LOCK_NOEXCEPT {
  Node* n;
  {
    HleGuard guard(lock_);
    n = top_;
    if (n == nullptr) return nullptr;
    // Pointer swap only: the list is singly linked, and the node reset
    // happens outside, in get().
    top_ = n->next;
    --size_;
    shared_count_.store(size_, std::memory_order_relaxed);
  }
  return n;
}

void Pool::shared_put(Node* n) EA_LOCK_NOEXCEPT {
  HleGuard guard(lock_);
  n->next = top_;
  top_ = n;
  ++size_;
  shared_count_.store(size_, std::memory_order_relaxed);
}

void Pool::shared_put_chain(Node* head, Node* tail,
                            std::size_t n) EA_LOCK_NOEXCEPT {
  if (head == nullptr || n == 0) return;
  HleGuard guard(lock_);
  tail->next = top_;
  top_ = head;
  size_ += n;
  shared_count_.store(size_, std::memory_order_relaxed);
}

// --- magazine plumbing ------------------------------------------------------

Pool::Magazine* Pool::magazine() EA_LOCK_NOEXCEPT {
  if (!use_magazines_) return nullptr;
  return magazines_.acquire();
}

std::uint32_t Pool::refill(Magazine& mag) EA_LOCK_NOEXCEPT {
  // Detach up to kMagazineBatch nodes from the shared top under one lock
  // acquisition.
  Node* head;
  std::uint32_t taken = 0;
  {
    HleGuard guard(lock_);
    head = top_;
    Node* cut = nullptr;
    Node* n = top_;
    while (n != nullptr && taken < kMagazineBatch) {
      cut = n;
      n = n->next;
      ++taken;
    }
    if (taken == 0) return 0;
    top_ = n;
    cut->next = nullptr;
    size_ -= taken;
    shared_count_.store(size_, std::memory_order_relaxed);
  }
  // The shared top is the hottest node; store it at the magazine top so
  // get() (which pops items[count-1]) keeps strict LIFO order.
  std::uint32_t c = taken;
  for (Node* n = head; n != nullptr; --c) {
    Node* next = n->next;
    mag.items[c - 1] = n;
    n = next;
  }
  mag.count.store(taken, std::memory_order_relaxed);
  return taken;
}

void Pool::flush(Magazine& mag, std::uint32_t keep) EA_LOCK_NOEXCEPT {
  std::uint32_t c = mag.count.load(std::memory_order_relaxed);
  if (c <= keep) return;
  std::uint32_t drop = c - keep;
  // Flush the *oldest* entries (bottom of the magazine) so the hottest
  // nodes stay cached; link them into a private chain and splice once.
  Node* head = mag.items[0];
  for (std::uint32_t i = 0; i + 1 < drop; ++i) {
    mag.items[i]->next = mag.items[i + 1];
  }
  Node* tail = mag.items[drop - 1];
  tail->next = nullptr;
  for (std::uint32_t i = 0; i < keep; ++i) {
    mag.items[i] = mag.items[drop + i];
  }
  mag.count.store(keep, std::memory_order_relaxed);
  shared_put_chain(head, tail, drop);
}

// --- public get/put ---------------------------------------------------------

Node* Pool::get() EA_LOCK_NOEXCEPT {
  // Injected exhaustion: every get() caller must already handle a full
  // pool returning nullptr, so fault tests can force that path at will.
  if (EA_FAIL_TRIGGERED("pool.get.exhausted")) {
    exhaustions_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  Node* n = nullptr;
  Magazine* mag = magazine();
  if (mag != nullptr) {
    std::uint32_t c = mag->count.load(std::memory_order_relaxed);
    if (c == 0) c = refill(*mag);
    if (c != 0) {
      n = mag->items[c - 1];
      mag->count.store(c - 1, std::memory_order_relaxed);
    }
  } else {
    n = shared_get();
  }
  if (n != nullptr) {
    // Node reset deliberately happens here, outside every lock: the shared
    // critical section stays a pointer swap.
    n->next = nullptr;
    n->prev = nullptr;
    n->size = 0;
    n->tag = 0;
  } else {
    exhaustions_.fetch_add(1, std::memory_order_relaxed);
  }
  return n;
}

void Pool::put(Node* n) EA_LOCK_NOEXCEPT {
  if (n == nullptr) return;
  Magazine* mag = magazine();
  if (mag != nullptr) {
    std::uint32_t c = mag->count.load(std::memory_order_relaxed);
    if (c == kMagazineCapacity) {
      flush(*mag, kMagazineCapacity - kMagazineBatch);
      c = kMagazineCapacity - kMagazineBatch;
    }
    n->prev = nullptr;
    mag->items[c] = n;
    mag->count.store(c + 1, std::memory_order_relaxed);
    return;
  }
  n->prev = nullptr;
  shared_put(n);
}

std::size_t Pool::size() const noexcept {
  return shared_count_.load(std::memory_order_relaxed) + magazines_.cached();
}

void NodeLease::reset() noexcept {
  if (node_ != nullptr && node_->home != nullptr) {
    node_->home->put(node_);
  }
  node_ = nullptr;
}

}  // namespace ea::concurrent

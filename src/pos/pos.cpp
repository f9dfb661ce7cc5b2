#include "pos/pos.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <stdexcept>
#include <thread>

#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace ea::pos {

namespace {

// FNV-1a; cheap and adequate for bucket selection. For encrypted stores the
// input is the deterministically encrypted key, exactly as the paper
// prescribes — the plaintext never influences placement observably.
std::uint64_t fnv1a(std::span<const std::uint8_t> data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint32_t kStateFree = 0;
constexpr std::uint32_t kStateLive = 1;
constexpr std::uint32_t kStateOutdated = 2;  // superseded by a newer version
constexpr std::uint32_t kStateErased = 3;    // deleted via erase()

// An erase tombstones every version of the key still linked, not only the
// Live one. The cleaner unlinks top-down, so between unlinking the marker
// and unlinking an older Outdated version a get() can walk past the gap;
// left Outdated, that version would be returned after the erase completed.
constexpr bool erasable(std::uint32_t state) noexcept {
  return state == kStateLive || state == kStateOutdated;
}

// Freed payloads are filled with this before the entry re-enters a free
// list, so a use-after-retire reads unmistakable garbage instead of stale
// (possibly plausible) data. The hazard counter is the cheap runtime
// tripwire; the poison makes the failure loud under ASan/debuggers.
constexpr std::uint8_t kPoisonByte = 0xDD;

constexpr std::size_t round_up(std::size_t v, std::size_t a) {
  return (v + a - 1) / a * a;
}

// Process-wide thread token: selects a home free shard and a counter
// stripe. Tokens are dense, so up to free_shard_count concurrent threads
// map to distinct shards.
std::uint32_t thread_token() noexcept {
  static std::atomic<std::uint32_t> seq{0};
  static thread_local const std::uint32_t token =
      seq.fetch_add(1, std::memory_order_relaxed);
  return token;
}

}  // namespace

struct Pos::Superblock {
  std::uint64_t magic;
  std::uint32_t version;
  std::uint32_t bucket_count;
  std::uint32_t entry_count;
  std::uint32_t entry_payload;
  // v2: the free list is sharded; the heads live in a persisted array at
  // free_off so the shard count is part of the file geometry (a reopening
  // process uses the file's shard count, not its own core count).
  std::uint32_t free_shard_count;
  std::uint32_t reserved;
  std::uint64_t entry_stride;
  std::uint64_t buckets_off;
  std::uint64_t free_off;
  std::uint64_t entries_off;
  std::atomic<std::uint64_t> epoch;
  // v3: the global reclamation epoch (concurrent/epoch.hpp) replaces the
  // v2 grace-counter array. Persisting it keeps epoch monotonicity across
  // persist() + reopen; the per-thread announcements are process-local and
  // die with a crash, which merely orphans any in-flight retirement batch.
  std::atomic<std::uint64_t> reclaim_epoch;
};

struct Pos::Entry {
  std::atomic<std::uint64_t> next;   // offset of next entry in bucket; 0 nil
  std::atomic<std::uint32_t> state;  // kState*
  std::uint32_t klen;
  std::uint32_t vlen;
  std::uint32_t pad;
  std::uint8_t* data() noexcept {
    return reinterpret_cast<std::uint8_t*>(this) + sizeof(Entry);
  }
  const std::uint8_t* data() const noexcept {
    return reinterpret_cast<const std::uint8_t*>(this) + sizeof(Entry);
  }
  std::span<const std::uint8_t> value() const noexcept {
    return {data() + klen, vlen};
  }
};

Pos::Pos(PosOptions options) : options_(std::move(options)) {
  bool fresh = true;

  // Reopening an existing file: the geometry — including the free-shard
  // count — comes from its superblock, not from the caller's options.
  if (!options_.path.empty()) {
    int probe = ::open(options_.path.c_str(), O_RDONLY);
    if (probe >= 0) {
      Superblock sb{};
      ssize_t got = ::pread(probe, &sb, sizeof(sb), 0);
      ::close(probe);
      if (got == static_cast<ssize_t>(sizeof(sb)) && sb.magic == kPosMagic) {
        // Version gates everything else: a v2 (grace-counter) image has a
        // different layout AND a different reclamation protocol, so it is
        // rejected before any field of its superblock is believed.
        if (sb.version != kPosVersion) {
          throw std::runtime_error("POS: bad version");
        }
        options_.bucket_count = sb.bucket_count;
        options_.entry_count = sb.entry_count;
        options_.entry_payload = sb.entry_payload;
        options_.free_shards = sb.free_shard_count;
      }
    }
  }

  std::uint32_t shards = options_.free_shards;
  if (shards == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    shards = hw == 0 ? 1 : static_cast<std::uint32_t>(hw);
  }
  if (shards > kMaxFreeShards) shards = kMaxFreeShards;
  options_.free_shards = shards;

  constexpr std::size_t kHead = sizeof(std::atomic<std::uint64_t>);
  entry_stride_ = round_up(sizeof(Entry) + options_.entry_payload, 64);
  buckets_off_ = round_up(sizeof(Superblock), 64);
  free_off_ = buckets_off_ + round_up(options_.bucket_count * kHead, 64);
  entries_off_ = free_off_ + round_up(shards * kHead, 64);
  map_bytes_ = round_up(
      entries_off_ + std::size_t{options_.entry_count} * entry_stride_, 4096);

  if (options_.path.empty()) {
    map_ = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (map_ != MAP_FAILED && EA_FAIL_TRIGGERED("pos.mmap")) {
      ::munmap(map_, map_bytes_);
      map_ = MAP_FAILED;
    }
    if (map_ == MAP_FAILED) throw std::runtime_error("POS: mmap failed");
  } else {
    fd_ = ::open(options_.path.c_str(), O_RDWR | O_CREAT, 0644);
    if (fd_ >= 0 && EA_FAIL_TRIGGERED("pos.open")) {
      ::close(fd_);
      fd_ = -1;
    }
    if (fd_ < 0) throw std::runtime_error("POS: open failed: " + options_.path);
    struct stat st {};
    if (::fstat(fd_, &st) != 0) {
      ::close(fd_);
      throw std::runtime_error("POS: fstat failed");
    }
    fresh = st.st_size == 0;
    if (fresh && ::ftruncate(fd_, static_cast<off_t>(map_bytes_)) != 0) {
      ::close(fd_);
      throw std::runtime_error("POS: ftruncate failed");
    }
    if (!fresh && static_cast<std::size_t>(st.st_size) < map_bytes_) {
      ::close(fd_);
      throw std::runtime_error("POS: existing file smaller than layout");
    }
    map_ = ::mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                  fd_, 0);
    if (map_ != MAP_FAILED && EA_FAIL_TRIGGERED("pos.mmap")) {
      ::munmap(map_, map_bytes_);
      map_ = MAP_FAILED;
    }
    if (map_ == MAP_FAILED) {
      ::close(fd_);
      throw std::runtime_error("POS: mmap failed");
    }
  }

  sb_ = reinterpret_cast<Superblock*>(map_);
  if (fresh) {
    sb_->magic = kPosMagic;
    sb_->version = kPosVersion;
    sb_->bucket_count = options_.bucket_count;
    sb_->entry_count = options_.entry_count;
    sb_->entry_payload = options_.entry_payload;
    sb_->free_shard_count = shards;
    sb_->reserved = 0;
    sb_->entry_stride = entry_stride_;
    sb_->buckets_off = buckets_off_;
    sb_->free_off = free_off_;
    sb_->entries_off = entries_off_;
    sb_->epoch.store(1, std::memory_order_relaxed);
    sb_->reclaim_epoch.store(1, std::memory_order_relaxed);
    init_fresh();
  } else {
    validate_existing();
    // Epoch 0 means "quiescent slot", so a (theoretically) torn image that
    // lost the initial store is healed rather than trusted.
    if (sb_->reclaim_epoch.load(std::memory_order_relaxed) == 0) {
      sb_->reclaim_epoch.store(1, std::memory_order_relaxed);
    }
  }
  epochs_.attach(&sb_->reclaim_epoch);

  bucket_locks_ =
      std::make_unique<concurrent::HleSpinLock[]>(options_.bucket_count);
  free_locks_ = std::make_unique<concurrent::HleSpinLock[]>(shards);
  // Array construction cannot pass constructor arguments, so the locks are
  // ranked post-construction — before the store is visible to any other
  // thread. All buckets share kPosBucket and all shards share kPosFree:
  // the runtime never nests two locks of the same family (each walk locks
  // one bucket/shard at a time), so same-rank nesting stays forbidden.
  for (std::uint32_t b = 0; b < options_.bucket_count; ++b) {
    bucket_locks_[b].set_rank(concurrent::LockRank::kPosBucket);
  }
  for (std::uint32_t s = 0; s < shards; ++s) {
    free_locks_[s].set_rank(concurrent::LockRank::kPosFree);
  }

  magazines_.set_return(
      this, [](void* ctx, std::uint64_t* items, std::uint32_t count) {
        static_cast<Pos*>(ctx)->magazine_return(items, count);
      });
}

Pos::~Pos() {
  // Splice every cached entry back onto the shard free lists so a cleanly
  // closed file conserves all entries on persisted structure (a crash
  // instead orphans the in-magazine entries, which recovery tolerates).
  // Retirement batches are drained the same way: no section can be live
  // during destruction (lifetime contract), so every batch is past its
  // horizon by definition.
  if (map_ != nullptr && map_ != MAP_FAILED) {
    magazines_.evict_all(
        [this](std::uint64_t* items, std::uint32_t count) {
          magazine_return(items, count);
        });
    {
      concurrent::HleGuard retire_guard(retire_lock_);
      while (!retired_.empty()) {
        epochs_.advance();
        flush_retired();
      }
    }
    ::munmap(map_, map_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
}

void Pos::init_fresh() {
  // Thread all entries onto the shard free lists (stacks, like the pool
  // abstraction they share their implementation with). Each shard owns a
  // contiguous block of slots for locality.
  for (std::uint32_t b = 0; b < options_.bucket_count; ++b) {
    bucket_head(b).store(0, std::memory_order_relaxed);
  }
  const std::uint32_t shards = options_.free_shards;
  const std::uint64_t count = options_.entry_count;
  for (std::uint32_t s = 0; s < shards; ++s) {
    const std::uint64_t lo = count * s / shards;
    const std::uint64_t hi = count * (s + 1) / shards;
    std::uint64_t prev = 0;
    for (std::uint64_t i = lo; i < hi; ++i) {
      std::uint64_t off = entries_off_ + i * entry_stride_;
      Entry* e = entry_at(off);
      e->state.store(kStateFree, std::memory_order_relaxed);
      e->next.store(prev, std::memory_order_relaxed);
      prev = off;
    }
    free_head(s).store(prev, std::memory_order_relaxed);
  }
}

void Pos::validate_existing() {
  const Superblock& sb = *sb_;
  if (sb.magic != kPosMagic) throw std::runtime_error("POS: bad magic");
  if (sb.version != kPosVersion) throw std::runtime_error("POS: bad version");
  if (sb.bucket_count == 0 || sb.entry_count == 0) {
    throw std::runtime_error("POS: corrupt superblock");
  }
  if (sb.free_shard_count == 0 || sb.free_shard_count > kMaxFreeShards) {
    throw std::runtime_error("POS: corrupt superblock (free shards)");
  }
  // The mapping was sized from the superblock read before it was mapped;
  // the mapped one must describe that same layout.
  if (!opened_layout(sb)) {
    throw std::runtime_error("POS: corrupt superblock (layout)");
  }
}

bool Pos::opened_layout(const Superblock& sb) const noexcept {
  return sb.bucket_count == options_.bucket_count &&
         sb.entry_count == options_.entry_count &&
         sb.entry_payload == options_.entry_payload &&
         sb.free_shard_count == options_.free_shards &&
         sb.entry_stride == entry_stride_ && sb.buckets_off == buckets_off_ &&
         sb.free_off == free_off_ && sb.entries_off == entries_off_;
}

Pos::Entry* Pos::entry_at(std::uint64_t offset) noexcept {
  return reinterpret_cast<Entry*>(static_cast<std::byte*>(map_) + offset);
}

const Pos::Entry* Pos::entry_at(std::uint64_t offset) const noexcept {
  return reinterpret_cast<const Entry*>(static_cast<const std::byte*>(map_) +
                                        offset);
}

std::uint64_t Pos::offset_of(const Entry* e) const noexcept {
  return static_cast<std::uint64_t>(reinterpret_cast<const std::byte*>(e) -
                                    static_cast<const std::byte*>(map_));
}

std::atomic<std::uint64_t>& Pos::bucket_head(std::uint32_t bucket)
    const noexcept {
  auto* base = reinterpret_cast<std::atomic<std::uint64_t>*>(
      static_cast<std::byte*>(map_) + buckets_off_);
  return base[bucket];
}

std::atomic<std::uint64_t>& Pos::free_head(std::uint32_t shard)
    const noexcept {
  auto* base = reinterpret_cast<std::atomic<std::uint64_t>*>(
      static_cast<std::byte*>(map_) + free_off_);
  return base[shard];
}

std::uint32_t Pos::bucket_of(std::span<const std::uint8_t> key) const noexcept {
  return static_cast<std::uint32_t>(fnv1a(key) % options_.bucket_count);
}

std::uint32_t Pos::home_shard() const noexcept {
  return thread_token() % options_.free_shards;
}

// --- sharded free lists -----------------------------------------------------
//
// Shard lists are only ever mutated under their shard lock; the relaxed
// atomics inside the critical sections mirror the original single-list
// code (the lock provides the ordering). Detached entries — a popped batch,
// a magazine's contents, the cleaner's retirement batches — are reachable
// from no persisted root, so a crash while they are in flight orphans them,
// which integrity_error() deliberately tolerates.

std::uint32_t Pos::shard_pop(std::uint32_t s, std::uint64_t* out,
                             std::uint32_t max) EA_LOCK_NOEXCEPT {
  concurrent::HleGuard guard(free_locks_[s]);
  std::uint32_t taken = 0;
  std::uint64_t cur = free_head(s).load(std::memory_order_relaxed);
  while (cur != 0 && taken < max) {
    out[taken++] = cur;
    cur = entry_at(cur)->next.load(std::memory_order_relaxed);
  }
  if (taken != 0) free_head(s).store(cur, std::memory_order_relaxed);
  return taken;
}

void Pos::shard_push_chain(std::uint32_t s, std::uint64_t head,
                           std::uint64_t tail) EA_LOCK_NOEXCEPT {
  concurrent::HleGuard guard(free_locks_[s]);
  entry_at(tail)->next.store(free_head(s).load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  free_head(s).store(head, std::memory_order_relaxed);
}

std::uint32_t Pos::pop_or_steal(std::uint64_t* out,
                                std::uint32_t max) EA_LOCK_NOEXCEPT {
  const std::uint32_t shards = options_.free_shards;
  const std::uint32_t home = home_shard();
  std::uint32_t got = shard_pop(home, out, max);
  if (got != 0) return got;
  for (std::uint32_t i = 1; i < shards; ++i) {
    got = shard_pop((home + i) % shards, out, max);
    if (got != 0) {
      // Kill-point: the stolen batch is reachable from neither its old
      // shard nor anywhere else yet — a crash here orphans it.
      EA_FAIL_POINT("pos.freeshard.steal");
      return got;
    }
  }
  return 0;
}

std::uint32_t Pos::pop_striped(std::uint64_t* out,
                               std::uint32_t max) EA_LOCK_NOEXCEPT {
  const std::uint32_t shards = options_.free_shards;
  const std::uint32_t home = home_shard();
  // Hint pass, no locks held: guess every shard's top and start its cache
  // line loading. Popping a whole batch off one list chases dependent next
  // pointers — each miss waits for the previous one — but the tops of
  // *separate* shard lists are independent, so prefetching them all first
  // lets the misses overlap. A stale guess (another thread popped first)
  // merely wastes the prefetch; the pops below hold the shard locks.
  for (std::uint32_t i = 0; i < shards; ++i) {
    const std::uint64_t guess =
        free_head((home + i) % shards).load(std::memory_order_relaxed);
    if (guess != 0) __builtin_prefetch(entry_at(guess));
  }
  // First sweep takes at most ceil(max/shards) per shard, home first, to
  // stay on the prefetched tops; later sweeps (shards running dry) take
  // whatever remains wherever it is.
  const std::uint32_t quota = (max + shards - 1) / shards;
  std::uint32_t got = 0;
  for (std::uint32_t sweep = 0; got < max; ++sweep) {
    std::uint32_t sweep_got = 0;
    for (std::uint32_t i = 0; i < shards && got < max; ++i) {
      const std::uint32_t s = (home + i) % shards;
      const std::uint32_t want =
          sweep == 0 ? std::min(quota, max - got) : max - got;
      const std::uint32_t n = shard_pop(s, out + got, want);
      got += n;
      sweep_got += n;
      if (n != 0 && s != home) {
        // Kill-point: as in pop_or_steal — the cross-shard batch is
        // reachable from nowhere until it lands in the magazine.
        EA_FAIL_POINT("pos.freeshard.steal");
      }
    }
    if (sweep_got == 0) break;
  }
  return got;
}

std::uint32_t Pos::magazine_refill(Magazine& mag) EA_LOCK_NOEXCEPT {
  std::uint64_t batch[kPosMagazineBatch];
  const std::uint32_t got = pop_striped(
      batch, static_cast<std::uint32_t>(kPosMagazineBatch));
  // batch[0] was a shard top (hottest); store it at the magazine top so
  // alloc (which pops items[count-1]) keeps LIFO order.
  for (std::uint32_t i = 0; i < got; ++i) {
    mag.items[got - 1 - i] = batch[i];
  }
  mag.count.store(got, std::memory_order_relaxed);
  return got;
}

void Pos::magazine_return(const std::uint64_t* items,
                          std::uint32_t count) EA_LOCK_NOEXCEPT {
  if (count == 0) return;
  // Kill-point: the magazine's entries are about to rejoin a shard list;
  // until the splice lands they are unreachable, so a crash here (thread
  // exit or store teardown mid-flush) orphans them.
  EA_FAIL_POINT("pos.magazine.flush");
  // items[count-1] is the hottest entry — chain it first so it lands on
  // the shard top.
  std::uint64_t head = 0;
  std::uint64_t tail = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t off = items[i];
    Entry* e = entry_at(off);
    e->next.store(head, std::memory_order_relaxed);
    if (head == 0) tail = off;
    head = off;
  }
  shard_push_chain(home_shard(), head, tail);
}

std::uint64_t Pos::alloc_entry() EA_LOCK_NOEXCEPT {
  if (options_.magazines) {
    Magazine* mag = magazines_.acquire();
    if (mag != nullptr) {
      std::uint32_t c = mag->count.load(std::memory_order_relaxed);
      if (c == 0) c = magazine_refill(*mag);
      if (c == 0) return 0;
      const std::uint64_t off = mag->items[c - 1];
      mag->count.store(c - 1, std::memory_order_relaxed);
      // Kill-point: the popped entry is now reachable from neither a free
      // shard nor any bucket — a crash here orphans the slot, which
      // recovery must tolerate (integrity_error() ignores unreachable
      // entries).
      EA_FAIL_POINT("pos.alloc.pop");
      return off;
    }
  }
  std::uint64_t off = 0;
  if (pop_or_steal(&off, 1) == 0) return 0;
  EA_FAIL_POINT("pos.alloc.pop");
  return off;
}

// --- epoch sections ---------------------------------------------------------

void Pos::epoch_enter() {
  // Kill-point: the announcement is process-local state; a crash here loses
  // nothing on the file — torture uses it to kill "between announce and
  // first touch".
  EA_FAIL_POINT("pos.epoch.announce");
  epochs_.enter();
}

void Pos::epoch_leave() noexcept { epochs_.leave(); }

std::uint64_t Pos::reclaim_epoch() const noexcept { return epochs_.global(); }

std::size_t Pos::epoch_slots_active() const noexcept {
  return epochs_.active_slots();
}

std::size_t Pos::epoch_slots_claimed() const noexcept {
  return epochs_.claimed_slots();
}

void Pos::note_hazard() noexcept {
  hazards_.fetch_add(1, std::memory_order_relaxed);
}

#if defined(EA_FAILPOINTS)
void Pos::set_walk_hook(WalkHook hook, void* ctx) noexcept {
  walk_ctx_ = ctx;
  walk_hook_.store(hook, std::memory_order_release);
}
#endif

bool Pos::set(std::span<const std::uint8_t> key,
              std::span<const std::uint8_t> value) {
  if (key.empty() || key.size() + value.size() > options_.entry_payload) {
    return false;
  }
  if (set_once(key, value)) return true;
  if (!options_.clean_on_pressure) return false;
  // Allocation pressure: help the cleaner instead of failing outright.
  // Any thread may reclaim under epoch-based reclamation (the retirement
  // lock serialises helpers), and we hold no section here, so two steps
  // are enough to carry a fresh retirement batch across its safety
  // horizon when the store is otherwise quiet.
  std::size_t freed = clean_step();
  if (freed == 0) freed = clean_step();
  if (freed == 0) return false;
  return set_once(key, value);
}

bool Pos::set_once(std::span<const std::uint8_t> key,
                   std::span<const std::uint8_t> value) {
  Section section(*this);
  std::uint64_t off = alloc_entry();
  if (off == 0) return false;

  Entry* e = entry_at(off);
  e->klen = static_cast<std::uint32_t>(key.size());
  e->vlen = static_cast<std::uint32_t>(value.size());
  std::memcpy(e->data(), key.data(), key.size());
  if (!value.empty()) std::memcpy(e->data() + key.size(), value.data(), value.size());
  // Kill-point: the entry is fully written but still unlinked and not Live;
  // a crash here must leave the previous version intact.
  EA_FAIL_POINT("pos.set.fill");
  e->state.store(kStateLive, std::memory_order_release);

  // Lock-free LIFO push: concurrent set()s race only on the head CAS, and
  // readers starting after the release-CAS see the new version first. The
  // release ordering also publishes the payload written above.
  const std::uint32_t bucket = bucket_of(key);
  std::atomic<std::uint64_t>& head = bucket_head(bucket);
  std::uint64_t old_head = head.load(std::memory_order_acquire);
  do {
    e->next.store(old_head, std::memory_order_relaxed);
    // Kill-point: filled and Live but the CAS has not landed — the slot is
    // orphaned and the previous version stays current.
    EA_FAIL_POINT("pos.bucket.cas");
  } while (!head.compare_exchange_weak(old_head, off,
                                       std::memory_order_release,
                                       std::memory_order_acquire));
  // Kill-point: new version linked, old version not yet marked outdated.
  EA_FAIL_POINT("pos.set.link");

  // Mark the superseded version (the next LIVE occurrence of this key)
  // outdated right away "to ease cleaning" (§4.1). The walk holds no lock:
  // concurrent pushes only prepend above us, concurrent unlinks leave the
  // removed entry's next intact (RCU discipline), and reclamation of
  // anything we might stand on is deferred until our section's epoch is
  // two advances stale — which our announcement blocks.
  std::uint64_t cur = e->next.load(std::memory_order_relaxed);
  while (cur != 0) {
    Entry* c = entry_at(cur);
    const std::uint32_t state = c->state.load(std::memory_order_acquire);
    if (state == kStateFree) note_hazard();
    if (state == kStateLive && c->klen == key.size() &&
        std::memcmp(c->data(), key.data(), key.size()) == 0) {
      c->state.store(kStateOutdated, std::memory_order_release);
      break;
    }
    cur = c->next.load(std::memory_order_acquire);
  }
  EA_FAIL_POINT("pos.set.done");
  sets_[thread_token() % kCounterStripes].v.fetch_add(
      1, std::memory_order_relaxed);
  return true;
}

std::optional<util::Bytes> Pos::get(std::span<const std::uint8_t> key) {
  gets_[thread_token() % kCounterStripes].v.fetch_add(
      1, std::memory_order_relaxed);
  Section section(*this);
  const std::uint32_t bucket = bucket_of(key);
  std::uint64_t cur = bucket_head(bucket).load(std::memory_order_acquire);
  while (cur != 0) {
#if defined(EA_FAILPOINTS)
    // Test hook (fault builds only): lets the use-after-retire detector
    // test park this walk on a chosen entry while the cleaner runs.
    if (WalkHook hook = walk_hook_.load(std::memory_order_acquire)) {
      hook(walk_ctx_, cur);
    }
#endif
    const Entry* e = entry_at(cur);
    // The first occurrence from the top is the newest version; outdated
    // entries of the same key sit deeper and are skipped by returning at
    // the first match (they may legitimately be returned to a get() that
    // began before the overwriting set() — linearisable either way).
    std::uint32_t state = e->state.load(std::memory_order_acquire);
    if (state == kStateFree) {
      // A Free entry is never reachable from a bucket chain under the
      // epoch protocol: seeing one means this walk outlived its safety
      // horizon. Count it (poisoned payload makes the data side loud too)
      // and keep walking — the chain terminates in the free list.
      note_hazard();
    } else if (e->klen == key.size() &&
               std::memcmp(e->data(), key.data(), key.size()) == 0) {
      // First (newest) occurrence decides: an erase marker means the key is
      // gone; outdated entries remain readable so a get() racing a set()
      // stays linearisable at its start point (paper Fig. 5).
      if (state == kStateErased) return std::nullopt;
      return util::Bytes(e->value().begin(), e->value().end());
    }
    cur = e->next.load(std::memory_order_acquire);
  }
  return std::nullopt;
}

bool Pos::erase(std::span<const std::uint8_t> key) {
  Section section(*this);
  const std::uint32_t bucket = bucket_of(key);
  bool found = false;
  // The bucket lock serialises erase against the cleaner's unlink, but not
  // against the lock-free pushers — hence the acquire loads. A set()
  // pushing during the walk is simply linearised after this erase.
  concurrent::HleGuard guard(bucket_locks_[bucket]);
  std::uint64_t cur = bucket_head(bucket).load(std::memory_order_acquire);
  while (cur != 0) {
    Entry* e = entry_at(cur);
    const std::uint32_t state = e->state.load(std::memory_order_acquire);
    if (erasable(state) && e->klen == key.size() &&
        std::memcmp(e->data(), key.data(), key.size()) == 0) {
      e->state.store(kStateErased, std::memory_order_release);
      // Kill-point: this version is tombstoned; older versions of the same
      // key (if any) are not yet marked. The top-most marker already hides
      // them from get(), so a crash here still reads as "erased".
      EA_FAIL_POINT("pos.erase.mark");
      if (state == kStateLive) found = true;
    }
    cur = e->next.load(std::memory_order_acquire);
  }
  return found;
}

// --- cleaner ----------------------------------------------------------------

std::size_t Pos::gather_retired() {
  std::vector<std::uint64_t> batch;
  for (std::uint32_t b = 0; b < options_.bucket_count; ++b) {
    concurrent::HleGuard guard(bucket_locks_[b]);
    std::uint64_t prev = 0;
    std::uint64_t cur = bucket_head(b).load(std::memory_order_acquire);
    while (cur != 0) {
      Entry* e = entry_at(cur);
      std::uint64_t next = e->next.load(std::memory_order_relaxed);
      std::uint32_t state = e->state.load(std::memory_order_relaxed);
      if (state == kStateOutdated || state == kStateErased) {
        if (prev == 0) {
          // Head removal races the lock-free pushers: CAS the head out,
          // and on failure walk down from the new head to find cur's
          // predecessor (pushers only ever prepend, so cur's position
          // below the old head is stable while we hold the bucket lock).
          std::uint64_t expected = cur;
          if (!bucket_head(b).compare_exchange_strong(
                  expected, next, std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            std::uint64_t p = expected;
            while (p != 0 &&
                   entry_at(p)->next.load(std::memory_order_acquire) != cur) {
              p = entry_at(p)->next.load(std::memory_order_acquire);
            }
            if (p == 0) {
              // Lost track of cur (cannot happen while we hold the only
              // unlink path, but stay defensive): leave it for the next
              // round rather than corrupt the chain.
              prev = cur;
              cur = next;
              continue;
            }
            entry_at(p)->next.store(next, std::memory_order_release);
            prev = p;
          }
        } else {
          entry_at(prev)->next.store(next, std::memory_order_release);
        }
        // The unlinked entry keeps its own next pointer (RCU discipline):
        // a section that already stands on it can still walk off it.
        // Kill-point: the entry just left its bucket chain but sits only in
        // the process-local retirement batch, which the crash destroys —
        // the slot is leaked until the next full reinitialisation, by
        // design.
        EA_FAIL_POINT("pos.clean.unlink");
        batch.push_back(cur);
      } else {
        prev = cur;
      }
      cur = next;
    }
  }
  const std::size_t gathered = batch.size();
  if (gathered != 0) {
    retired_.push_back(
        RetireBatch{epochs_.global(), std::move(batch)});
    retired_count_ += gathered;
  }
  return gathered;
}

void Pos::advance_epoch() {
  const std::uint64_t g = epochs_.global();
  // The forced variant (tests only) skips the quiescence scan to prove the
  // use-after-retire detector catches a protocol violation; the kill-point
  // before it is the torture harness's "crash at the advance edge".
  EA_FAIL_POINT("pos.epoch.advance");
  if (EA_FAIL_TRIGGERED("pos.epoch.force_advance") || epochs_.quiescent_at(g)) {
    epochs_.advance();
  }
}

std::size_t Pos::flush_retired() {
  const std::uint64_t g = epochs_.global();
  std::size_t freed = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < retired_.size(); ++i) {
    RetireBatch& batch = retired_[i];
    if (batch.epoch + 2 > g) {
      // Not yet past the safety horizon; batches are appended in epoch
      // order but re-checked individually so a forced advance cannot skip
      // one by accident. Move only when compacting over a freed slot — a
      // self-move-assign would empty the batch's entry vector.
      if (kept != i) {
        retired_[kept] = std::move(batch);
      }
      ++kept;
      continue;
    }
    // Kill-point: the batch is about to be poisoned and spliced; a crash
    // anywhere in the loop below leaves some entries Free-but-unreachable
    // and the rest Outdated-but-unreachable — all orphans, all tolerated.
    EA_FAIL_POINT("pos.retire.flush");
    std::uint64_t chain_head = 0;
    std::uint64_t chain_tail = 0;
    for (std::uint64_t off : batch.entries) {
      Entry* e = entry_at(off);
      // Poison before the state flip: any straggler section that still
      // dereferences this entry reads 0xDD garbage (and zero lengths), not
      // stale data, and the bucket-walk hazard counter fires on the Free
      // state.
      std::memset(e->data(), kPoisonByte, options_.entry_payload);
      e->klen = 0;
      e->vlen = 0;
      e->state.store(kStateFree, std::memory_order_release);
      e->next.store(chain_head, std::memory_order_relaxed);
      if (chain_head == 0) chain_tail = off;
      chain_head = off;
    }
    if (chain_head != 0) {
      // One splice per batch — a single shard-lock acquisition; rotating
      // the target shard spreads the recycled capacity.
      const std::uint32_t shard =
          clean_rr_.fetch_add(1, std::memory_order_relaxed) %
          options_.free_shards;
      shard_push_chain(shard, chain_head, chain_tail);
    }
    freed += batch.entries.size();
  }
  retired_.resize(kept);
  retired_count_ -= freed;
  return freed;
}

std::size_t Pos::clean_step() {
  concurrent::HleGuard retire_guard(retire_lock_);
  // Gather first (tagging the batch with the pre-advance epoch), then try
  // to advance, then flush whatever is two epochs stale. With no active
  // sections a batch gathered at G frees on the step after next — the same
  // cadence the grace counters had with zero readers — but a thread that
  // is merely *between* operations never stalls the pipeline, and multiple
  // epoch-tagged batches stay in flight instead of serialising.
  std::size_t gathered = gather_retired();
  (void)gathered;
  advance_epoch();
  return flush_retired();
}

bool Pos::persist() {
  if (fd_ < 0) return true;
  // The epoch bump is the commit marker: a flushed image always carries a
  // higher epoch than the image before the previous persist(). The
  // kill-point between bump and msync is the torture harness's
  // "crash mid superblock commit" scenario. The reclamation epoch rides
  // along in the superblock, which is what keeps it monotonic across
  // reopen.
  sb_->epoch.fetch_add(1, std::memory_order_release);
  EA_FAIL_POINT("pos.superblock.commit");
  int rc = ::msync(map_, map_bytes_, MS_SYNC);
  if (EA_FAIL_TRIGGERED("pos.msync")) rc = -1;
  return rc == 0;
}

std::optional<std::string> Pos::integrity_error() const {
  if (sb_->magic != kPosMagic) return "bad magic";
  if (sb_->version != kPosVersion) return "bad version";
  // Every walk below uses the opened layout, which fits the mapping by
  // construction; a superblock that no longer describes it is the error.
  if (!opened_layout(*sb_)) return "superblock geometry changed since open";
  const std::uint64_t entries_end =
      entries_off_ + std::uint64_t{options_.entry_count} * entry_stride_;
  auto slot_of = [&](std::uint64_t off) -> std::int64_t {
    if (off < entries_off_ || off >= entries_end) return -1;
    if ((off - entries_off_) % entry_stride_ != 0) return -1;
    return static_cast<std::int64_t>((off - entries_off_) / entry_stride_);
  };
  // 0 = unseen, 1 = on a bucket chain, 2 = on a free-shard list.
  std::vector<std::uint8_t> seen(options_.entry_count, 0);

  for (std::uint32_t b = 0; b < options_.bucket_count; ++b) {
    std::uint64_t cur = bucket_head(b).load(std::memory_order_acquire);
    while (cur != 0) {
      const std::int64_t slot = slot_of(cur);
      if (slot < 0) return "bucket chain offset out of range or misaligned";
      if (seen[static_cast<std::size_t>(slot)] != 0) {
        return "entry linked twice (cycle or cross-link)";
      }
      seen[static_cast<std::size_t>(slot)] = 1;
      const Entry* e = entry_at(cur);
      const std::uint32_t state = e->state.load(std::memory_order_acquire);
      if (state != kStateLive && state != kStateOutdated &&
          state != kStateErased) {
        return "free or invalid-state entry reachable from a bucket";
      }
      if (e->klen == 0 ||
          static_cast<std::uint64_t>(e->klen) + e->vlen >
            options_.entry_payload) {
        return "entry length fields exceed payload";
      }
      cur = e->next.load(std::memory_order_acquire);
    }
  }

  for (std::uint32_t s = 0; s < options_.free_shards; ++s) {
    std::uint64_t cur = free_head(s).load(std::memory_order_acquire);
    while (cur != 0) {
      const std::int64_t slot = slot_of(cur);
      if (slot < 0) return "free list offset out of range or misaligned";
      if (seen[static_cast<std::size_t>(slot)] != 0) {
        return "entry on free list and elsewhere (cycle or cross-link)";
      }
      seen[static_cast<std::size_t>(slot)] = 2;
      const Entry* e = entry_at(cur);
      if (e->state.load(std::memory_order_acquire) != kStateFree) {
        return "non-free entry on the free list";
      }
      cur = e->next.load(std::memory_order_acquire);
    }
  }
  return std::nullopt;
}

PosStats Pos::stats() const {
  PosStats stats;
  // The whole snapshot sits under the retire lock: the cleaner (which also
  // holds it for its entire step) cannot migrate entries between the
  // bucket chains, the retirement batches and the free lists while the
  // categories are being counted. The pre-epoch version took the state
  // scan, the shard walks and the magazine count at different times and a
  // concurrent clean_step could shift entries between them mid-sum.
  concurrent::HleGuard retire_guard(retire_lock_);
  for (std::size_t i = 0; i < kCounterStripes; ++i) {
    stats.sets += sets_[i].v.load(std::memory_order_relaxed);
    stats.gets += gets_[i].v.load(std::memory_order_relaxed);
  }
  for (std::uint32_t i = 0; i < options_.entry_count; ++i) {
    const Entry* e = entry_at(entries_off_ + i * entry_stride_);
    switch (e->state.load(std::memory_order_relaxed)) {
      case kStateLive:
        ++stats.live;
        break;
      case kStateOutdated:
      case kStateErased:
        ++stats.outdated;
        break;
      default:
        ++stats.free;
        break;
    }
  }
  // Retired entries still carry the Outdated/Erased state (sections may
  // read them until the horizon passes), so the scan counted them under
  // `outdated`; reapportion so `outdated` means "still linked in a bucket".
  stats.retired = retired_count_;
  stats.outdated -= std::min(stats.outdated, stats.retired);
  // Location decomposition of the Free population: walk each shard list
  // under its lock (capped defensively — a concurrent writer cannot extend
  // the walk past the entry count without a cycle, which integrity_error()
  // owns detecting).
  std::uint64_t walk_budget = options_.entry_count;
  for (std::uint32_t s = 0; s < options_.free_shards; ++s) {
    concurrent::HleGuard guard(free_locks_[s]);
    std::uint64_t cur = free_head(s).load(std::memory_order_relaxed);
    while (cur != 0 && walk_budget != 0) {
      ++stats.free_listed;
      --walk_budget;
      cur = entry_at(cur)->next.load(std::memory_order_relaxed);
    }
  }
  stats.in_magazine = magazines_.cached();
  stats.reclaim_epoch = epochs_.global();
  stats.reclaim_hazards = hazards_.load(std::memory_order_relaxed);
  return stats;
}

std::uint32_t Pos::bucket_count() const noexcept {
  return options_.bucket_count;
}
std::uint32_t Pos::entry_payload() const noexcept {
  return options_.entry_payload;
}
std::uint32_t Pos::free_shard_count() const noexcept {
  return options_.free_shards;
}

}  // namespace ea::pos

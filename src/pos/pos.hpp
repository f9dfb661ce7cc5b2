// Persistent Object Store (paper §4.1).
//
// A lean, concurrently accessible key-value store over a memory-mapped file
// that "utilises the page cache of the kernel": no system call on the data
// path, only an explicit persist() (msync) when durability is demanded.
//
// Layout (cf. paper Fig. 4): superblock | bucket heads | free-shard heads |
// entry slots. Entries are managed as stacks: set(k,v) pushes a *new*
// version on the bucket stack of hash(k) and marks the previous version
// outdated; get(k) scans from the top and returns the first match, so a get
// racing a set returns the value current when the get began — the store is
// linearisable (paper Fig. 5). Outdated versions accumulate until the
// Cleaner removes them.
//
// Write-path scaling (DESIGN.md §11): the free list is sharded into
// free_shard_count per-lock LIFO stacks (geometry persisted in the
// superblock), allocation pops from the caller's home shard and steals from
// the others when it runs dry, and per-thread *entry magazines*
// (concurrent/magazine.hpp) front the shards so the steady-state set()
// allocates without any lock. The bucket push itself is a lock-free CAS on
// the bucket head — a pure LIFO push; erase and the cleaner's unlink keep
// the per-bucket lock. PosOptions::magazines = false disables the
// magazine layer for ablation.
//
// Reclamation (DESIGN.md §15) is epoch-based: every operation runs inside
// an epoch Section (set/get/erase open one internally; callers composing
// multi-step reads open their own). The paper's grace counters — every
// registered reader must tick before anything is freed — serialised the
// cleaner against the lock-free write path and collapsed under concurrency;
// with epochs, a thread that is *between* operations is quiescent and never
// delays reclamation. The cleaner unlinks superseded versions into
// epoch-tagged retirement batches, advances the global epoch when every
// announced slot has caught up, and frees a batch only two epochs after its
// retirement (concurrent/epoch.hpp has the three-epoch safety argument).
//
// Deviation from the paper: internal references are file *offsets*, not raw
// virtual addresses, so the file needs no fixed mapping address. Behaviour
// is identical; robustness is better.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "concurrent/epoch.hpp"
#include "concurrent/hle_lock.hpp"
#include "concurrent/magazine.hpp"
#include "util/bytes.hpp"

namespace ea::pos {

inline constexpr std::uint64_t kPosMagic = 0x50'4f'53'31'45'41'43'54ull;
// v3: the grace-counter array is gone and the superblock carries the
// reclamation epoch (reclaim_epoch), so epoch monotonicity survives a
// persist() + reopen. v2 (grace counters) and v1 images are rejected on
// open — the reclamation protocols are not mixable within one file.
inline constexpr std::uint32_t kPosVersion = 3;
// Concurrent epoch-section holders per store. Unlike the old reader slots,
// these recycle on thread exit — the bound is on simultaneous holders, not
// on threads ever seen.
inline constexpr std::size_t kMaxEpochSlots = 64;
inline constexpr std::uint32_t kMaxFreeShards = 64;

// Entries a thread may cache per store / refill-steal batch size; same
// shape as the pool's node magazines.
inline constexpr std::size_t kPosMagazineCapacity = 16;
inline constexpr std::size_t kPosMagazineBatch = 8;
inline constexpr std::size_t kMaxPosMagazines = 8;

static_assert(kPosMagazineBatch <= kPosMagazineCapacity);

struct PosOptions {
  // Backing file; empty uses an anonymous (non-persistent) mapping.
  std::string path;
  std::uint32_t bucket_count = 32;  // the paper's Fig. 4 draws B1..B32
  std::uint32_t entry_count = 4096;
  std::uint32_t entry_payload = 512;  // max combined key+value bytes
  // Free-list shards; 0 = auto (hardware_concurrency, clamped to
  // [1, kMaxFreeShards]). Ignored when reopening an existing file — the
  // shard count is part of the persisted geometry.
  std::uint32_t free_shards = 0;
  // Per-thread entry magazines. Benchmarks and tests turn them off to
  // quantify their contribution.
  bool magazines = true;
  // Cooperative reclamation under allocation pressure: when set() finds no
  // free entry it runs up to two cleaner steps inline (outside its epoch
  // section) and retries once. Safe under epoch reclamation — any thread
  // may clean; the retirement lock serialises helpers — where the old
  // grace counters would have had a writer waiting on itself. Off by
  // default: a failing set() stays a pure "store full" probe.
  bool clean_on_pressure = false;
};

struct PosStats {
  std::uint64_t live = 0;
  // Superseded/erased versions still linked in a bucket (not yet gathered
  // by the cleaner). The state scan cannot tell these from retired entries,
  // so stats() computes this as scan count minus `retired` — consistent
  // because the whole snapshot is taken under the retire lock.
  std::uint64_t outdated = 0;
  std::uint64_t free = 0;  // entries in the Free state (state scan)
  // Unlinked into an epoch-tagged retirement batch, awaiting the safety
  // horizon (retire epoch + 2). The successor of the old `limbo` gauge.
  std::uint64_t retired = 0;
  // Decomposition of `free` by location: reachable from a shard free list
  // vs. cached in a per-thread magazine. When quiescent,
  // free == free_listed + in_magazine, and conservation reads
  // live + outdated + retired + free == entry_count.
  std::uint64_t free_listed = 0;
  std::uint64_t in_magazine = 0;
  std::uint64_t sets = 0;
  std::uint64_t gets = 0;
  // Current reclamation epoch (monotonic, persisted in the superblock).
  std::uint64_t reclaim_epoch = 0;
  // Bucket walks that stepped on a Free-state entry. Impossible under the
  // epoch protocol — every increment is a use-after-retire caught by the
  // poisoned-free detector (tests force an unsafe advance to prove the
  // counter fires).
  std::uint64_t reclaim_hazards = 0;
};

class Pos {
 public:
  // Maps (creating or reopening) the store. Throws std::runtime_error on
  // I/O failure or superblock mismatch.
  explicit Pos(PosOptions options);
  ~Pos();

  Pos(const Pos&) = delete;
  Pos& operator=(const Pos&) = delete;

  // Inserts or updates. Returns false when the store is full (no free
  // entries) or key+value exceed the entry payload. With
  // `clean_on_pressure`, a full store first runs up to two cleaner steps
  // inline and retries once before giving up.
  bool set(std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> value);

  // Returns the latest value for key, or nullopt.
  std::optional<util::Bytes> get(std::span<const std::uint8_t> key);

  // Removes a key: marks all its versions outdated (space is reclaimed by
  // the cleaner). Returns true if any version existed.
  bool erase(std::span<const std::uint8_t> key);

  // --- epoch sections for safe reclamation ---------------------------------
  //
  // Every bucket-chain traversal must happen inside a section: the section
  // pins the epoch it announced, and the cleaner will not free anything
  // retired at that epoch or later until the section ends. set/get/erase
  // open one internally (sections nest), so plain callers need nothing;
  // callers that hold entry-derived data across several calls (or tests
  // that want to model a stalled reader) open a Section explicitly.

  class Section {
   public:
    // RAII: the constructor's enter is paired by the destructor's leave,
    // so neither half balances on its own.
    // ea-lint: allow-next-line(epoch-pairing)
    explicit Section(Pos& pos) : pos_(&pos) { pos_->epoch_enter(); }
    // ea-lint: allow-next-line(epoch-pairing)
    ~Section() { if (pos_ != nullptr) pos_->epoch_leave(); }
    Section(const Section&) = delete;
    Section& operator=(const Section&) = delete;

   private:
    Pos* pos_;
  };

  // Raw section boundary, re-entrant per thread. Prefer Section; these are
  // public for the RAII wrapper and for tests probing the protocol. The
  // enclave lint (rule `epoch-pairing`) checks every function that touches
  // one also touches the other.
  void epoch_enter();
  void epoch_leave() noexcept;

  // Current reclamation epoch (test/diagnostic hook; also in stats()).
  std::uint64_t reclaim_epoch() const noexcept;
  // Announced (in-section) and claimed epoch slots (test hooks).
  std::size_t epoch_slots_active() const noexcept;
  std::size_t epoch_slots_claimed() const noexcept;

  // --- housekeeping --------------------------------------------------------

  // One cleaner step, three phases under retire_lock_ (kPosRetire):
  //   gather  — unlink outdated/erased versions from the bucket stacks into
  //             a retirement batch tagged with the current epoch (nests the
  //             bucket locks, kPosBucket);
  //   advance — bump the global epoch iff every announced slot has caught
  //             up (lock-free scan of the epoch slot array);
  //   flush   — poison and free every batch whose retirement epoch is two
  //             or more behind, splicing each onto one free shard as a
  //             single chain (nests free-shard locks, kPosFree).
  // Returns the number of entries freed this step. Typically driven by
  // CleanerActor. A batch therefore takes two quiescent steps from gather
  // to free — same cadence the grace counters had with no readers, but a
  // thread *between* operations never delays it.
  std::size_t clean_step() EA_EXCLUDES(retire_lock_);

  // Flushes the mapping to the backing file (no-op for anonymous mappings).
  // Bumps the superblock epoch first, so a flushed image is distinguishable
  // from one that never reached persist(). Returns false when msync fails.
  bool persist();

  // Structural validation of the mapped image, for crash-recovery checks:
  // checks that the superblock still describes the opened layout, then
  // walks every bucket chain and every free-shard list with that layout,
  // rejecting out-of-range/misaligned offsets, cycles, entries linked
  // twice, free-state entries reachable from a bucket, and length fields
  // exceeding the payload. Entries reachable from *nothing* are fine — a
  // crash between alloc and link (or with entries in a magazine or a
  // retirement batch) orphans slots legitimately; only linked structure
  // must be consistent. Returns a description of the first problem, or
  // nullopt when the image is sound.
  std::optional<std::string> integrity_error() const;

  // Conservation snapshot. Holds retire_lock_ across the state scan, the
  // retired count, the free-list walks and the magazine accounting, so the
  // cleaner cannot migrate entries between categories mid-snapshot (the
  // pre-epoch stats() raced exactly that way). Writers can still flip
  // Free→Live concurrently; exact identities need externally quiesced
  // writers, which is what the tests arrange.
  PosStats stats() const EA_EXCLUDES(retire_lock_);

  std::uint32_t bucket_count() const noexcept;
  std::uint32_t entry_payload() const noexcept;
  std::uint32_t free_shard_count() const noexcept;

#if defined(EA_FAILPOINTS)
  // Test-only (fault builds): called with each entry offset a get() walk
  // visits. The use-after-retire detector parks a walk on a chosen entry
  // while the cleaner is forced past the safety horizon, making the hazard
  // deterministic instead of a scheduling coincidence.
  using WalkHook = void (*)(void* ctx, std::uint64_t offset);
  void set_walk_hook(WalkHook hook, void* ctx) noexcept;
#endif

 private:
  struct Superblock;
  struct Entry;
  using Magazines = concurrent::MagazineSet<std::uint64_t,
                                            kPosMagazineCapacity,
                                            kMaxPosMagazines>;
  using Magazine = Magazines::Magazine;
  using Epochs = concurrent::EpochDomain<kMaxEpochSlots, kMaxPosMagazines>;

  // One cleaner gather, frozen with the epoch current at unlink time.
  struct RetireBatch {
    std::uint64_t epoch = 0;
    std::vector<std::uint64_t> entries;
  };

  // One insert/update attempt; returns false on allocation failure. The
  // public set() adds the optional clean-on-pressure retry around it.
  bool set_once(std::span<const std::uint8_t> key,
                std::span<const std::uint8_t> value);

  Entry* entry_at(std::uint64_t offset) noexcept;
  const Entry* entry_at(std::uint64_t offset) const noexcept;
  std::uint64_t offset_of(const Entry* e) const noexcept;
  std::atomic<std::uint64_t>& bucket_head(std::uint32_t bucket) const noexcept;
  std::atomic<std::uint64_t>& free_head(std::uint32_t shard) const noexcept;
  std::uint32_t bucket_of(std::span<const std::uint8_t> key) const noexcept;

  std::uint32_t home_shard() const noexcept;
  // Pops up to `max` entries from shard `s` into out[]; out[0] is the
  // shard's (hottest) top. Returns the number taken.
  std::uint32_t shard_pop(std::uint32_t s, std::uint64_t* out,
                          std::uint32_t max) EA_LOCK_NOEXCEPT;
  // Splices a pre-linked chain (head..tail via Entry::next) onto shard `s`.
  void shard_push_chain(std::uint32_t s, std::uint64_t head,
                        std::uint64_t tail) EA_LOCK_NOEXCEPT;
  // Pops from the home shard, stealing a batch from the other shards when
  // it runs dry. Fills out[]; returns the number taken.
  std::uint32_t pop_or_steal(std::uint64_t* out,
                             std::uint32_t max) EA_LOCK_NOEXCEPT;
  // Batch pop for magazine refills: spreads the pops across the shards
  // (home first, prefetching each shard's guessed top before locking) so
  // the chain-top misses of independent lists overlap instead of
  // serialising down a single list.
  std::uint32_t pop_striped(std::uint64_t* out,
                            std::uint32_t max) EA_LOCK_NOEXCEPT;

  std::uint64_t alloc_entry() EA_LOCK_NOEXCEPT;  // 0 when exhausted
  std::uint32_t magazine_refill(Magazine& mag) EA_LOCK_NOEXCEPT;
  void magazine_return(const std::uint64_t* items,
                       std::uint32_t count) EA_LOCK_NOEXCEPT;
  // clean_step phases (all called with retire_lock_ held).
  std::size_t gather_retired() EA_REQUIRES(retire_lock_);
  void advance_epoch() EA_REQUIRES(retire_lock_);
  std::size_t flush_retired() EA_REQUIRES(retire_lock_);
  void note_hazard() noexcept;
  void init_fresh();
  void validate_existing();
  // True when `sb` describes the layout the store opened with.
  bool opened_layout(const Superblock& sb) const noexcept;

  PosOptions options_;
  int fd_ = -1;
  void* map_ = nullptr;
  std::size_t map_bytes_ = 0;

  Superblock* sb_ = nullptr;
  // The layout fixed at open: options_ holds the counts and the payload,
  // these the entry stride and the region offsets derived from them. The
  // mapped superblock is host memory that can change under the store, so
  // no operation re-reads its geometry; only integrity_error() walks the
  // image, and it checks bounds first.
  std::uint64_t entry_stride_ = 0;
  std::uint64_t buckets_off_ = 0;
  std::uint64_t free_off_ = 0;
  std::uint64_t entries_off_ = 0;

  // In-RAM (per-process) concurrency control; the on-file structures hold
  // only offsets and data. The lock arrays are ranked kPosBucket/kPosFree
  // post-construction (the thread-safety analysis cannot express
  // per-element array guarding, so the bucket/free-list structures rely on
  // the runtime rank checker plus TSan rather than EA_GUARDED_BY).
  std::unique_ptr<concurrent::HleSpinLock[]> bucket_locks_;
  std::unique_ptr<concurrent::HleSpinLock[]> free_locks_;
  mutable concurrent::HleSpinLock retire_lock_{
      concurrent::LockRank::kPosRetire};

  Magazines magazines_;
  // Epoch slots are process-local: a crash discards every announcement and
  // every retirement batch (the unlinked entries become orphans, which
  // integrity_error() tolerates); only the global epoch is in the file.
  Epochs epochs_;

  std::vector<RetireBatch> retired_ EA_GUARDED_BY(retire_lock_);
  std::uint64_t retired_count_ EA_GUARDED_BY(retire_lock_) = 0;
  // Round-robin target shard for the cleaner's batched returns.
  std::atomic<std::uint32_t> clean_rr_{0};

  // Striped op counters: set()/get() bump one stripe keyed by the calling
  // thread so the hot path never bounces a shared counter line.
  struct alignas(64) CounterStripe {
    std::atomic<std::uint64_t> v{0};
  };
  static constexpr std::size_t kCounterStripes = 16;
  CounterStripe sets_[kCounterStripes];
  CounterStripe gets_[kCounterStripes];
  std::atomic<std::uint64_t> hazards_{0};

#if defined(EA_FAILPOINTS)
  std::atomic<WalkHook> walk_hook_{nullptr};
  void* walk_ctx_ = nullptr;
#endif
};

}  // namespace ea::pos

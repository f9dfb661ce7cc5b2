#include "concurrent/lock_rank.hpp"

namespace ea::concurrent {

const char* lock_rank_name(LockRank rank) noexcept {
  switch (rank) {
    case LockRank::kUnranked:
      return "kUnranked";
    case LockRank::kMigration:
      return "kMigration";
    case LockRank::kXmppDirectory:
      return "kXmppDirectory";
    case LockRank::kXmppRooms:
      return "kXmppRooms";
    case LockRank::kActorFailure:
      return "kActorFailure";
    case LockRank::kSocketTable:
      return "kSocketTable";
    case LockRank::kRunQueue:
      return "kRunQueue";
    case LockRank::kMbox:
      return "kMbox";
    case LockRank::kPoolShared:
      return "kPoolShared";
    case LockRank::kMagazineRegistry:
      return "kMagazineRegistry";
    case LockRank::kPosRetire:
      return "kPosRetire";
    case LockRank::kEpochRegistry:
      return "kEpochRegistry";
    case LockRank::kPosBucket:
      return "kPosBucket";
    case LockRank::kPosFree:
      return "kPosFree";
    case LockRank::kEnclaveManager:
      return "kEnclaveManager";
    case LockRank::kMonotonicCounter:
      return "kMonotonicCounter";
    case LockRank::kSgxMutex:
      return "kSgxMutex";
  }
  return "kUnknown";
}

}  // namespace ea::concurrent

#if defined(EA_LOCK_RANK)

#include <atomic>
#include <cstdio>

namespace ea::concurrent::lock_rank {

namespace {

// Deepest real nesting today is three (retire→bucket→free); sixteen leaves
// generous headroom before the checker silently stops tracking a thread.
constexpr int kMaxHeld = 16;

// Trivially constructible/destructible on purpose: thread_local caches
// elsewhere (MagazineSet::ThreadCache) run lock-taking code during TLS
// teardown, and this stack must still be usable then.
struct HeldStack {
  LockRank ranks[kMaxHeld];
  int depth;
};

thread_local HeldStack tls_held{{}, 0};

std::atomic<std::uint64_t> g_violations{0};
std::atomic<Handler> g_handler{nullptr};

void default_handler(const LockRankViolation& v) {
  char what[192];
  std::snprintf(what, sizeof(what),
                "lock-rank violation: acquiring %s(%u) while holding %s(%u); "
                "ranks must be strictly ascending (concurrent/lock_rank.hpp)",
                lock_rank_name(v.acquiring),
                static_cast<unsigned>(v.acquiring), lock_rank_name(v.held),
                static_cast<unsigned>(v.held));
  throw LockRankError(what);
}

}  // namespace

Handler set_violation_handler(Handler handler) noexcept {
  return g_handler.exchange(handler, std::memory_order_acq_rel);
}

std::uint64_t violations() noexcept {
  return g_violations.load(std::memory_order_relaxed);
}

int held_count() noexcept { return tls_held.depth; }

void note_acquire(LockRank rank) {
  if (rank == LockRank::kUnranked) {
    return;
  }
  HeldStack& held = tls_held;
  if (held.depth > 0) {
    const LockRank top = held.ranks[held.depth - 1];
    if (static_cast<std::uint8_t>(top) >= static_cast<std::uint8_t>(rank)) {
      g_violations.fetch_add(1, std::memory_order_relaxed);
      Handler handler = g_handler.load(std::memory_order_acquire);
      if (handler == nullptr) {
        handler = default_handler;
      }
      // The default handler throws here, before the caller spins on the
      // lock, so the offending acquisition never happens and no lock is
      // left held. A returning handler lets the acquisition proceed (the
      // rank is still pushed so the matching release stays balanced).
      handler(LockRankViolation{top, rank});
    }
  }
  if (held.depth < kMaxHeld) {
    held.ranks[held.depth++] = rank;
  }
}

void note_release(LockRank rank) noexcept {
  if (rank == LockRank::kUnranked) {
    return;
  }
  HeldStack& held = tls_held;
  // Guards release LIFO, so the top entry matches in practice; scanning
  // downward tolerates hand-rolled non-LIFO unlock sequences in tests.
  for (int i = held.depth - 1; i >= 0; --i) {
    if (held.ranks[i] == rank) {
      for (int j = i; j + 1 < held.depth; ++j) {
        held.ranks[j] = held.ranks[j + 1];
      }
      --held.depth;
      return;
    }
  }
}

}  // namespace ea::concurrent::lock_rank

#endif  // EA_LOCK_RANK

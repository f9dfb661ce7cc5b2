// Lock-rank (lock hierarchy) deadlock detection.
//
// Every ranked lock in the runtime belongs to the global LockRank table
// below, ordered by acquisition: a thread may only acquire a lock whose
// rank is STRICTLY GREATER than every rank it already holds. Any two
// threads that each respect that rule can never deadlock on ranked locks,
// because a cycle in the waits-for graph would need at least one
// non-ascending acquisition.
//
// Two enforcement layers share this table:
//   * a debug-build runtime checker (-DEA_LOCK_RANK=ON): HleSpinLock calls
//     note_acquire()/note_release() around every acquisition, keeping a
//     per-thread stack of held ranks. An out-of-order acquisition invokes
//     the violation handler BEFORE the lock spins, so the default handler
//     can throw LockRankError without leaving the lock held — inside an
//     actor body the worker contains the exception and the supervisor
//     restarts the actor (DESIGN.md §12), i.e. the violation aborts the
//     actor, not the process;
//   * a static pass in tools/enclave_lint.py (rule `lock-order-cycle`)
//     that extracts guard-nesting pairs across the whole tree and fails on
//     any cycle in the resulting lock graph, catching orderings no test
//     happens to execute.
//
// Ranks are spaced so new locks can slot between existing ones without
// renumbering. Same-rank nesting is forbidden (the runtime never holds two
// bucket or free-shard locks at once — each walk locks one shard at a
// time), which keeps the rule strict and the checker trivial.
#pragma once

#include <cstdint>
#include <stdexcept>

namespace ea::concurrent {

// Global acquisition order, outermost (acquired first) to innermost.
// DESIGN.md §13 documents who owns each rank and why the real nestings
// (limbo→bucket→free in the POS cleaner, magazine registry→free shard in
// the Pos destructor drain) are ascending.
enum class LockRank : std::uint8_t {
  kUnranked = 0,  // opted out of checking (never use for new locks)

  // core/migration — the coordinator's admission lock is the outermost
  // lock in the process: a migration holds it across park → seal →
  // transfer → resume, which touches mboxes, the enclave manager, the
  // counter service and whatever the actor's export/import hooks lock, so
  // every other rank must be acquirable under it.
  kMigration = 8,  // MigrationCoordinator::mu_

  // xmpp/ — server tables, entered first from the connection actors.
  kXmppDirectory = 10,   // xmpp::Directory::lock_
  kXmppRooms = 12,       // xmpp::RoomTable::lock_

  // core/ — per-actor failure bookkeeping.
  kActorFailure = 24,    // Actor::failure_lock_

  // net/ — host-side socket registry.
  kSocketTable = 32,     // net::SocketTable::lock_

  // concurrent/ — scheduler and message-path primitives. The run queue
  // ranks BELOW the mbox lock: a worker may hold its queue lock while a
  // wakeup probe touches mailbox state, but nothing on a mailbox path may
  // reach back into a run queue.
  kRunQueue = 36,        // RunQueue::lock_ (per-worker ready queues)
  kMbox = 40,            // Mbox::lock_
  kPoolShared = 44,      // Pool::lock_ (shared free-list)
  kPosRetire = 46,       // Pos retire_lock_ — outermost POS lock: the
                         // cleaner holds it across the whole gather →
                         // advance → flush step (nesting bucket, epoch
                         // registry and free-shard locks), and a stats
                         // conservation snapshot holds it across the
                         // magazine accounting scan, so it must rank below
                         // kMagazineRegistry.
  kMagazineRegistry = 48,  // MagazineSet::registry_lock_ (held across the
                           // evict drain, which pushes into POS free shards)

  // pos/ — sealed store internals; the cleaner nests
  // retire→{bucket, epoch registry, free} in ascending order.
  kEpochRegistry = 58,   // EpochDomain::registry_lock_ (slot claim/release
                         // only; the announce fast path and the advance
                         // scan are lock-free)
  kPosBucket = 60,       // Pos bucket_locks_[]
  kPosFree = 64,         // Pos free_locks_[] (shard free-lists)

  // sgxsim/ — the SDK-baseline mutex, then the host-side management
  // services. SgxMutex ranks BELOW the manager because its contended path
  // sleeps via ocall() while logically held, and charging that transition
  // takes EnclaveManager::mu_ — the fault-tree run under EA_LOCK_RANK
  // caught exactly this nesting when the ranks were ordered the other way.
  kSgxMutex = 68,          // SgxMutex (baseline comparison lock)
  kEnclaveManager = 72,    // EnclaveManager::mu_
  kMonotonicCounter = 76,  // MonotonicCounterService::mu_ (leaf: held over
                           // pure map ops, never calls out)
};

// Human-readable rank name for diagnostics ("kPosBucket", …).
const char* lock_rank_name(LockRank rank) noexcept;

// Thrown by the default violation handler. Derives std::runtime_error so
// Actor::invoke_contained() catches it like any other actor failure: the
// offending actor fails, the supervisor restarts it, the process survives.
class LockRankError : public std::runtime_error {
 public:
  explicit LockRankError(const char* what) : std::runtime_error(what) {}
};

struct LockRankViolation {
  LockRank held;       // highest rank already held by this thread
  LockRank acquiring;  // rank the thread attempted to acquire
};

#if defined(EA_LOCK_RANK)

namespace lock_rank {

// Called by the thread that detected the violation, BEFORE the offending
// lock is acquired. May throw (the default handler throws LockRankError);
// a handler that returns lets the acquisition proceed (used by tests that
// only want to count).
using Handler = void (*)(const LockRankViolation&);

// Installs a process-wide handler; returns the previous one (nullptr means
// the default throwing handler).
Handler set_violation_handler(Handler handler) noexcept;

// Total out-of-order acquisitions observed since process start.
std::uint64_t violations() noexcept;

// Number of ranked locks the calling thread currently holds (test hook).
int held_count() noexcept;

// Checker entry points, called by HleSpinLock and sgxsim lock wrappers.
// note_acquire() throws (via the handler) before the lock is touched, so a
// contained violation leaves no lock dangling. kUnranked is never tracked.
void note_acquire(LockRank rank);
void note_release(LockRank rank) noexcept;

}  // namespace lock_rank

#else  // !EA_LOCK_RANK — release builds: the checker compiles away.

namespace lock_rank {

inline void note_acquire(LockRank) noexcept {}
inline void note_release(LockRank) noexcept {}
inline std::uint64_t violations() noexcept { return 0; }
inline int held_count() noexcept { return 0; }

}  // namespace lock_rank

#endif  // EA_LOCK_RANK

}  // namespace ea::concurrent

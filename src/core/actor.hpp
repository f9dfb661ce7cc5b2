// The eactor abstraction (paper §3.1) plus its failure-containment
// lifecycle.
//
// An eactor is a self-contained computational entity with a constructor
// (runs once at startup, inside the eactor's enclave, to connect channels
// and initialise private state) and a body (run repeatedly, round-robin, by
// the worker the eactor is assigned to). Bodies must not block: they poll
// their mailboxes and return when there is nothing to do.
//
// Lifecycle (DESIGN.md §12): actor isolation only pays off when failures
// are contained per-actor instead of killing the process (cf. CAF's
// monitors/supervision). An exception escaping construct() or body() is
// caught by the worker, recorded as a FailureInfo, and moves the actor
//
//     Runnable ──failure──▶ Failed ──supervisor──▶ Restarting ──▶ Runnable
//                              │                        │
//                              └──budget exhausted──────┴──▶ Quarantined
//
// Workers skip any actor that is not Runnable, so a Failed/Quarantined
// actor consumes zero cycles while the rest of the deployment keeps
// running. The SupervisorActor (core/supervisor.hpp) owns the
// Failed → Restarting → Runnable | Quarantined transitions.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "concurrent/hle_lock.hpp"
#include "sgxsim/enclave.hpp"
#include "sgxsim/transition.hpp"
#include "util/bytes.hpp"

namespace ea::core {

class Runtime;
class ChannelEnd;

// Where an actor is in its failure-containment lifecycle.
enum class ActorState : std::uint8_t {
  kRunnable = 0,     // scheduled normally by its worker
  kFailed = 1,       // body()/construct() threw; awaiting the supervisor
  kRestarting = 2,   // supervisor is running on_restart()
  kQuarantined = 3,  // restart budget exhausted; permanently parked
  kMigrating = 4,    // parked at the migration barrier (DESIGN.md §17);
                     // workers skip it, the supervisor leaves it alone, and
                     // the MigrationCoordinator owns the exit transition
                     // back to kRunnable (success or rollback)
};

const char* to_string(ActorState state) noexcept;

// Dispatch priority under the stealing scheduler (DESIGN.md §14). High
// priority actors are popped (and stolen) before normal ones — the
// supervisor and the fd-facing net actors run high so containment sweeps
// and socket readiness never queue behind bulk message churn. The static
// scheduler ignores priorities (it executes the fixed list round-robin).
enum class ActorPriority : std::uint8_t {
  kNormal = 0,
  kHigh = 1,
};

// Where an actor is in the stealing scheduler's ready/idle protocol
// (DESIGN.md §14). Idle actors occupy no queue slot; their home worker
// re-polls them on its poll ticks. Exactly one worker may hold an actor in
// kQueued/kDispatched at any time — that exclusivity is what preserves
// FIFO-per-actor message order across migrations.
enum class SchedState : std::uint8_t {
  kParked = 0,      // idle: in no run queue; home worker polls it
  kQueued = 1,      // ready: sitting in exactly one worker's run queue
  kDispatched = 2,  // running: a worker is executing its body
};

// Snapshot of an actor's most recent failure, recorded by the worker at
// containment time and consumed by the supervisor / health reporting.
struct FailureInfo {
  std::string actor;                                // actor name
  sgxsim::EnclaveId enclave = sgxsim::kUntrusted;   // its placement
  std::string what;                                 // exception what()
  std::uint64_t at_invocation = 0;                  // invocations() when it failed
  std::uint64_t failure_count = 0;                  // total failures so far
};

class Actor {
 public:
  explicit Actor(std::string name) : name_(std::move(name)) {}
  virtual ~Actor() = default;

  Actor(const Actor&) = delete;
  Actor& operator=(const Actor&) = delete;

  const std::string& name() const noexcept { return name_; }

  // Enclave this actor is deployed into (kUntrusted when outside). Atomic:
  // migration rewrites it while workers concurrently read it for dispatch
  // (workers re-read the placement on every dispatch, under either
  // scheduler, which is what makes live migration possible at all —
  // DESIGN.md §17).
  sgxsim::EnclaveId placement() const noexcept {
    return placement_.load(std::memory_order_acquire);
  }

  // --- hooks implemented by the application ------------------------------

  // Constructor function: connect channels, initialise private state.
  // Runs inside the actor's enclave.
  virtual void construct(Runtime& rt) { (void)rt; }

  // Body function: one scheduling quantum. Returns true if the actor made
  // progress (processed or produced a message); workers use this to back
  // off when a whole round was idle.
  virtual bool body() = 0;

  // Restart hook: runs (inside the actor's enclave) when the supervisor
  // moves the actor Failed → Restarting. Reset whatever private state the
  // failure may have corrupted and re-arm subscriptions/channels; throwing
  // here counts as a failed restart attempt (back to Failed, backoff
  // doubles). The default keeps all state — pure message-pump actors are
  // restartable as-is.
  virtual void on_restart() {}

  // Quarantine hook: runs when the supervisor gives up on this actor.
  // Implementations MUST drain privately held nodes (mboxes, pending
  // queues) back to their pools so node conservation holds for the rest of
  // the deployment.
  virtual void on_quarantine() {}

  // Pending-work signal for the supervisor's stall watchdog: true when the
  // actor has input queued (non-empty mboxes/channels) that body() should
  // be consuming. Must be thread-safe and cheap (lock-free mbox counters);
  // the default (no pending work) opts the actor out of stall detection.
  virtual bool has_pending_work() const { return false; }

  // --- migration hooks (DESIGN.md §17) ------------------------------------
  //
  // An actor opts into live migration by overriding migratable() plus the
  // state hooks below. export/import run inside the respective enclave with
  // the actor parked at the migration barrier, so they may touch private
  // state freely.

  // Whether this actor can be migrated at all. Actors pinned to host
  // resources (raw fds, thread affinity) stay put.
  virtual bool migratable() const { return false; }

  // Serialises private state at the source (runs in the source enclave).
  // Must leave the actor untouched: a seal failure after the export
  // resumes the actor in place and restores nothing.
  virtual util::Bytes export_state() { return {}; }

  // Rebuilds private state at the destination (runs in the target enclave).
  // Returning false fails the migration — the coordinator rolls back to the
  // source copy.
  virtual bool import_state(std::span<const std::uint8_t> state) {
    return state.empty();
  }

  // --- runtime plumbing ---------------------------------------------------

  // Connects this actor to a named channel (creating it on first use) and
  // returns the endpoint. Only valid during construct().
  ChannelEnd* connect(const std::string& channel_name);

  // Approximate private-state size for EPC accounting. Override when an
  // actor owns large buffers.
  virtual std::uint64_t state_bytes() const { return 4096; }

  // Scheduling priority (stealing scheduler only). Set before start();
  // system actors (supervisor, net fd pumps) default themselves high.
  void set_priority(ActorPriority priority) noexcept { priority_ = priority; }
  ActorPriority priority() const noexcept { return priority_; }

  std::uint64_t invocations() const noexcept {
    return invocations_.load(std::memory_order_relaxed);
  }

  // --- lifecycle observation ---------------------------------------------

  ActorState lifecycle() const noexcept {
    return state_.load(std::memory_order_acquire);
  }

  // Total contained failures (construct() + body() + on_restart() throws).
  std::uint64_t failures() const noexcept {
    return failures_.load(std::memory_order_relaxed);
  }

  // Successful supervisor restarts.
  std::uint32_t restarts() const noexcept {
    return restarts_.load(std::memory_order_relaxed);
  }

  // Set by the supervisor's watchdog: invocations stopped moving while
  // pending work was queued. Cleared when the actor progresses again.
  bool stalled() const noexcept {
    return stalled_.load(std::memory_order_relaxed);
  }

  // Copy of the most recent failure record (empty `what` if none).
  FailureInfo last_failure() const EA_EXCLUDES(failure_lock_);

 private:
  friend class Runtime;
  friend class Worker;
  friend class SupervisorActor;
  friend class MigrationCoordinator;
  friend bool invoke_contained(Actor& actor, sgxsim::EnclaveId entered);

  // Containment bookkeeping: stores the failure record and moves the actor
  // to Failed. Called by the worker (body), the runtime (construct) and the
  // supervisor (on_restart); never throws into the caller.
  void record_failure(const char* what) noexcept EA_EXCLUDES(failure_lock_);

  // Supervisor-side transitions (see the state machine above).
  bool begin_restart() noexcept;     // Failed -> Restarting (CAS)
  void complete_restart() noexcept;  // Restarting -> Runnable
  void enter_quarantine() noexcept;  // Failed|Restarting -> Quarantined

  std::string name_;
  std::atomic<sgxsim::EnclaveId> placement_{sgxsim::kUntrusted};
  Runtime* runtime_ = nullptr;
  std::atomic<std::uint64_t> invocations_{0};

  // --- stealing-scheduler state (owned by core/worker.cpp) ----------------
  // sched_state_ is the exclusivity token: kParked -> kQueued happens via
  // CAS (poll ticks may race between two home workers sharing an actor),
  // kQueued -> kDispatched is done by the worker that popped the queue
  // entry (it holds the only reference), and the dispatching worker alone
  // performs the kDispatched -> kQueued/kParked hand-back with release
  // ordering so the next dispatcher observes the body's private state.
  ActorPriority priority_ = ActorPriority::kNormal;
  std::atomic<SchedState> sched_state_{SchedState::kParked};

  std::atomic<ActorState> state_{ActorState::kRunnable};
  // Dekker flag for the migration barrier: invoke_contained() publishes
  // executing_=true (seq_cst) BEFORE it loads state_, and the coordinator
  // stores kMigrating (seq_cst) before it loads executing_. Either the body
  // sees kMigrating and declines to run, or the coordinator sees
  // executing_=true and waits — a body can never start after the barrier
  // check passed.
  std::atomic<bool> executing_{false};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint32_t> restarts_{0};
  std::atomic<bool> stalled_{false};
  // Supervision infrastructure (the supervisor itself) opts out of
  // injected body faults — the root of the supervision tree has no
  // supervisor above it to heal it.
  bool fault_exempt_ = false;

  mutable concurrent::HleSpinLock failure_lock_{
      concurrent::LockRank::kActorFailure};
  std::string last_error_ EA_GUARDED_BY(failure_lock_);
  std::uint64_t last_failure_invocation_ EA_GUARDED_BY(failure_lock_) = 0;
};

// Runs one contained scheduling quantum of `actor`: skips it unless
// Runnable, counts the invocation, executes body() and converts an escaping
// exception (or an injected `actor.body.throw` failpoint fault) into a
// Failed transition instead of crashing the process. Does NOT enter the
// actor's enclave — callers (workers) manage placement and pass the enclave
// they entered for it: the body is also skipped when the placement no
// longer matches, i.e. a migration completed between the caller's
// placement read and the lifecycle check, so a body never runs in the
// enclave its actor left. Returns body()'s progress flag; false when
// skipped or failed.
bool invoke_contained(Actor& actor, sgxsim::EnclaveId entered);

// Same, running the actor wherever the caller is (tests drive bodies by
// hand this way).
inline bool invoke_contained(Actor& actor) {
  return invoke_contained(actor, actor.placement());
}

// Runs a lifecycle hook (construct(), on_restart(), on_quarantine()) inside
// the actor's enclave, or on the calling side when it is untrusted.
template <typename Fn>
void run_in_placement(Actor& actor, Fn&& fn) {
  if (actor.placement() == sgxsim::kUntrusted) return fn();
  sgxsim::EnclaveScope scope(
      *sgxsim::EnclaveManager::instance().find(actor.placement()));
  fn();
}

}  // namespace ea::core

// Workers (paper §3.2) and the two scheduling modes (DESIGN.md §14).
//
// A worker manages one POSIX thread, is bound to a CPU set, and executes
// eactor body functions. One loop serves both schedulers, selected per
// deployment (`sched static|steal` in the config grammar); they differ only
// in which actors a round dispatches:
//
//  * kStatic — the paper's scheduler and the ablation baseline: a round
//    dispatches every home actor in list order.
//
//  * kSteal — per-worker run queues with work stealing (CAF-style, see
//    *Revisiting Actor Programming in C++*): a round drains the worker's
//    own ready queues (high priority first), then steals from a random
//    victim, respecting enclave affinity — an actor may only run on workers
//    entered into its enclave, so every worker carries an affinity mask
//    (the enclaves of its home actors) and steals filter candidates by it.
//    Actors carry a ready/idle state driven by mailbox activity: an actor
//    whose body made no progress and whose mailboxes are empty parks,
//    occupying no queue slot, until a home-worker poll tick wakes it.
//
// Every dispatch re-reads the actor's placement, and the thread stays
// inside the enclave of the last dispatched actor ("sticky" entry): a
// worker whose actors share one enclave enters it once and never leaves —
// zero transitions on the steady-state path — and a mixed worker
// transitions only between consecutive actors placed differently.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/runqueue.hpp"
#include "core/actor.hpp"

namespace ea::core {

// Deployment-wide scheduler selection (RuntimeOptions::sched, config
// directive `sched static|steal`). Static is the default: existing
// deployments keep the paper's fixed mapping bit-for-bit.
enum class SchedMode : std::uint8_t {
  kStatic = 0,
  kSteal = 1,
};

const char* to_string(SchedMode mode) noexcept;

// Idle pacing for a worker's scheduling loop. EActors workers own their
// hardware thread and poll (paper §3.2), so a hand-off between actors costs
// a cache miss, not a timer wake-up. After a productive round the worker
// keeps polling, yielding between empty rounds, until it has been idle for
// kMaxSleepUs; only then does it sleep, doubling from kMinSleepUs up to
// kMaxSleepUs, so a fully idle worker stops burning an oversubscribed CPU
// while still observing request_stop() within ~a millisecond. Any progress
// restarts the idle window. The caller passes the time (steady clock, µs),
// so the ramp is testable without sleeping. It does not touch the cost
// model.
class IdleBackoff {
 public:
  // The idle window before the first sleep, and the cap on one sleep (it
  // bounds stop/wake latency); sleeps double from kMinSleepUs.
  static constexpr std::uint32_t kMinSleepUs = 16;
  static constexpr std::uint32_t kMaxSleepUs = 1000;

  // Called after an idle round at `now_us`: returns 0 (yield) until the
  // worker has been idle for kMaxSleepUs, then the number of microseconds
  // the caller should sleep.
  std::uint32_t next_idle(std::uint64_t now_us) noexcept {
    if (!idle_) {
      idle_ = true;
      idle_since_us_ = now_us;
    }
    if (now_us - idle_since_us_ < kMaxSleepUs) return 0;
    const std::uint32_t us = sleep_us_;
    sleep_us_ = std::min(sleep_us_ * 2, kMaxSleepUs);
    return us;
  }

  // Called after a productive round.
  void reset() noexcept {
    idle_ = false;
    sleep_us_ = kMinSleepUs;
  }

 private:
  bool idle_ = false;
  std::uint64_t idle_since_us_ = 0;
  std::uint32_t sleep_us_ = kMinSleepUs;
};

class Worker {
 public:
  // Stealing-scheduler pacing. A round drains at most kStealRoundBudget
  // dispatches before re-checking stop/poll duties; parked home actors are
  // re-polled every kIdlePollRounds rounds while the worker is busy (and
  // immediately on an empty round), bounding both the poll overhead under
  // load and the wake latency of sources that cannot signal pending work.
  static constexpr std::size_t kStealRoundBudget = 128;
  static constexpr std::uint32_t kIdlePollRounds = 16;

  Worker(std::string name, std::vector<int> cpus);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  const std::string& name() const noexcept { return name_; }

  void assign(Actor* actor) { actors_.push_back(actor); }
  const std::vector<Actor*>& actors() const noexcept { return actors_; }

  // Selects the scheduler and, for kSteal, wires the steal topology: the
  // full worker list (victims) and the run-queue capacity (total actors in
  // the deployment — a queue can never overflow because an actor occupies
  // at most one slot system-wide). Also derives the enclave-affinity mask
  // from the home actors. Called by Runtime::start() before threads run.
  void configure_sched(SchedMode mode, std::vector<Worker*> peers,
                       std::size_t queue_capacity);

  SchedMode sched_mode() const noexcept { return mode_; }

  // True when this worker may legally dispatch an actor placed in
  // `enclave`: untrusted actors run anywhere; enclave actors only on
  // workers whose home set entered that enclave.
  bool can_run(sgxsim::EnclaveId enclave) const noexcept;

  // Snapshot of the enclaves this worker is entitled to enter.
  std::vector<sgxsim::EnclaveId> affinity() const;

  // Extends the affinity mask at runtime — migration grants the migrated
  // actor's home workers entry to the target enclave so dispatch and
  // steal-filtering keep working after the placement flip. Single-writer
  // (the MigrationCoordinator serialises under its admission lock) against
  // concurrent lock-free can_run() readers. No-op when already granted;
  // returns false only when the fixed slot table is full.
  bool grant_affinity(sgxsim::EnclaveId enclave);

  // Worker currently executing on this thread (nullptr off worker
  // threads). Tests use this to assert the affinity invariant on every
  // dispatch.
  static Worker* current() noexcept;

  void start();
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
  }
  void join();

  std::uint64_t rounds() const noexcept {
    return rounds_.load(std::memory_order_relaxed);
  }

  // --- scheduler observability (health snapshot) --------------------------

  // Actors dispatched by this worker (both modes).
  std::uint64_t dispatches() const noexcept {
    return dispatches_.load(std::memory_order_relaxed);
  }

  // Actors this worker took from a victim's queue.
  std::uint64_t steals() const noexcept {
    return steals_.load(std::memory_order_relaxed);
  }

  // Ready actors currently sitting in this worker's run queues.
  std::size_t queue_depth() const noexcept {
    return high_q_.size() + norm_q_.size();
  }

  // Home actors currently not parked (queued or running, here or on the
  // worker that stole them).
  std::size_t ready_home_actors() const noexcept;

 private:
  void run();
  // Runs one contained quantum of `actor` inside its current placement and
  // counts it; in steal mode the actor (claimed kDispatched by the caller)
  // is then handed back to kQueued or kParked. Returns body()'s progress.
  bool dispatch(Actor& actor);
  // Moves the thread into `enclave` (sticky: stays until a dispatch needs a
  // different placement; kUntrusted exits).
  void switch_enclave(sgxsim::EnclaveId enclave);

  // --- stealing scheduler --------------------------------------------------
  // Pops the next ready actor from the own queues (high first); nullptr
  // when both are empty.
  Actor* pop_own();
  void push_own(Actor* actor, bool fresh_wakeup);
  // Random-victim steal, filtered by this worker's affinity mask.
  Actor* try_steal();
  // Poll tick: wakes parked home actors with pending mailbox work into the
  // queue's hot end and body-polls the ones that cannot signal readiness.
  // Returns true when any dispatch progressed or any actor was woken.
  bool poll_parked_home();
  static bool steal_filter(void* item, const void* ctx);

  std::string name_;
  std::vector<int> cpus_;
  std::vector<Actor*> actors_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> rounds_{0};

  SchedMode mode_ = SchedMode::kStatic;
  std::vector<Worker*> peers_;  // all workers incl. this one (steal victims)
  // Affinity mask as a fixed table of atomic slots so can_run() — called on
  // every steal probe, possibly by other workers' threads — stays lock-free
  // while grant_affinity() appends concurrently. The count is published
  // with release AFTER the slot value, so a reader that observes the new
  // count observes the slot. 32 enclaves per worker is far beyond any
  // deployment here (the paper's testbed tops out at 8).
  static constexpr std::size_t kMaxAffinity = 32;
  std::array<std::atomic<sgxsim::EnclaveId>, kMaxAffinity> affinity_slots_{};
  std::atomic<std::uint32_t> affinity_count_{0};
  concurrent::RunQueue high_q_;
  concurrent::RunQueue norm_q_;
  sgxsim::EnclaveId entered_ = sgxsim::kUntrusted;  // sticky enclave context
  std::uint64_t victim_rng_ = 0;
  std::atomic<std::uint64_t> dispatches_{0};
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace ea::core

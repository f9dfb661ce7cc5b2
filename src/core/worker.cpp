#include "core/worker.hpp"

#include <algorithm>
#include <chrono>

#include "sgxsim/transition.hpp"
#include "util/affinity.hpp"
#include "util/logging.hpp"

namespace ea::core {
namespace {

// Parks the thread per the backoff's verdict after an idle round (see
// IdleBackoff in worker.hpp for the ramp rationale). The sleep only ever
// runs after a millisecond without progress — never while any actor makes
// progress — so it cannot stall the message path the enclave-safety rules
// protect.
void park_idle(IdleBackoff& backoff) {
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  const std::uint32_t us = backoff.next_idle(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count()));
  if (us == 0) {
    std::this_thread::yield();
  } else {
    // ea-lint: allow-next-line(blocking-syscall) -- idle-only parking, bounded by kMaxSleepUs
    std::this_thread::sleep_for(std::chrono::microseconds(us));
  }
}

thread_local Worker* tls_current_worker = nullptr;

}  // namespace

const char* to_string(SchedMode mode) noexcept {
  switch (mode) {
    case SchedMode::kStatic:
      return "static";
    case SchedMode::kSteal:
      return "steal";
  }
  return "unknown";
}

Worker::Worker(std::string name, std::vector<int> cpus)
    : name_(std::move(name)), cpus_(std::move(cpus)) {}

Worker::~Worker() {
  request_stop();
  join();
}

Worker* Worker::current() noexcept { return tls_current_worker; }

void Worker::configure_sched(SchedMode mode, std::vector<Worker*> peers,
                             std::size_t queue_capacity) {
  mode_ = mode;
  peers_ = std::move(peers);
  affinity_count_.store(0, std::memory_order_relaxed);
  for (Actor* a : actors_) {
    if (a->placement() != sgxsim::kUntrusted) {
      grant_affinity(a->placement());
    }
  }
  if (mode_ == SchedMode::kSteal) {
    high_q_.reserve(queue_capacity);
    norm_q_.reserve(queue_capacity);
    // Distinct per-worker victim streams; derived from the name so runs
    // are reproducible (no wall-clock entropy in the scheduler).
    victim_rng_ = 0x9e3779b97f4a7c15ull;
    for (char c : name_) victim_rng_ = victim_rng_ * 131 + static_cast<unsigned char>(c);
  }
}

bool Worker::can_run(sgxsim::EnclaveId enclave) const noexcept {
  if (enclave == sgxsim::kUntrusted) return true;
  // Acquire on the count pairs with grant_affinity's release store, so a
  // reader that sees the new count sees the slot value. Linear scan over a
  // handful of slots beats the old sorted vector's binary search anyway.
  const std::uint32_t n = affinity_count_.load(std::memory_order_acquire);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (affinity_slots_[i].load(std::memory_order_relaxed) == enclave) {
      return true;
    }
  }
  return false;
}

std::vector<sgxsim::EnclaveId> Worker::affinity() const {
  const std::uint32_t n = affinity_count_.load(std::memory_order_acquire);
  std::vector<sgxsim::EnclaveId> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.push_back(affinity_slots_[i].load(std::memory_order_relaxed));
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool Worker::grant_affinity(sgxsim::EnclaveId enclave) {
  if (enclave == sgxsim::kUntrusted) return true;
  const std::uint32_t n = affinity_count_.load(std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (affinity_slots_[i].load(std::memory_order_relaxed) == enclave) {
      return true;  // already granted
    }
  }
  if (n >= kMaxAffinity) return false;
  // Slot first, count second (release): a concurrent can_run() either sees
  // the old count (misses the new grant, conservative) or the new count
  // with an initialised slot. Single writer by the coordinator contract.
  affinity_slots_[n].store(enclave, std::memory_order_relaxed);
  affinity_count_.store(n + 1, std::memory_order_release);
  return true;
}

std::size_t Worker::ready_home_actors() const noexcept {
  std::size_t n = 0;
  for (const Actor* a : actors_) {
    if (a->sched_state_.load(std::memory_order_relaxed) !=
        SchedState::kParked) {
      ++n;
    }
  }
  return n;
}

void Worker::start() {
  stop_.store(false, std::memory_order_relaxed);
  thread_ = std::thread([this] { run(); });
  // Pinned here, not by run(): a self-pin would first have to be scheduled
  // on this thread's CPU set, behind this thread (DESIGN.md §14
  // "Placement"). A set the kernel refuses leaves the worker unpinned.
  util::pin_thread(thread_, cpus_);
}

void Worker::join() {
  if (thread_.joinable()) thread_.join();
}

void Worker::run() {
  tls_current_worker = this;
  IdleBackoff backoff;
  std::uint32_t rounds_since_poll = kIdlePollRounds;  // poll on round one
  while (!stop_.load(std::memory_order_relaxed)) {
    bool progress = false;
    if (mode_ == SchedMode::kStatic) {
      for (Actor* actor : actors_) progress |= dispatch(*actor);
    } else {
      // Phase 1: drain ready work — own queues, then a random victim.
      std::size_t budget = kStealRoundBudget;
      while (budget-- > 0 && !stop_.load(std::memory_order_relaxed)) {
        Actor* actor = pop_own();
        if (actor == nullptr) actor = try_steal();
        if (actor == nullptr) break;
        // The popped or stolen entry was the actor's only queue reference.
        actor->sched_state_.store(SchedState::kDispatched,
                                  std::memory_order_relaxed);
        progress |= dispatch(*actor);
      }
      // Phase 2: paced poll of parked home actors — immediately when the
      // round found no ready work, every kIdlePollRounds rounds under load.
      if (!progress || ++rounds_since_poll >= kIdlePollRounds) {
        rounds_since_poll = 0;
        progress |= poll_parked_home();
      }
    }
    rounds_.fetch_add(1, std::memory_order_relaxed);
    if (progress) {
      backoff.reset();
    } else {
      park_idle(backoff);
    }
  }
  switch_enclave(sgxsim::kUntrusted);
  tls_current_worker = nullptr;
}

bool Worker::dispatch(Actor& actor) {
  // Containment (DESIGN.md §12): an exception escaping body() fails the
  // actor, not the process; non-Runnable actors are skipped.
  switch_enclave(actor.placement());
  const bool progress = invoke_contained(actor, entered_);
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  if (mode_ == SchedMode::kSteal) {
    // Ready/idle transition, driven by the body's own progress and the
    // lock-free mailbox counters: an actor with nothing to do occupies no
    // queue slot. Failed/quarantined actors always park — the supervisor
    // heals them and the home poll tick rediscovers them once Runnable,
    // wherever they had migrated to.
    const bool keep = (progress || actor.has_pending_work()) &&
                      actor.lifecycle() == ActorState::kRunnable;
    if (keep) {
      // Release: the next dispatcher (possibly another worker, via steal)
      // must observe every private-state write this body performed.
      actor.sched_state_.store(SchedState::kQueued, std::memory_order_release);
      push_own(&actor, /*fresh_wakeup=*/false);
    } else {
      actor.sched_state_.store(SchedState::kParked, std::memory_order_release);
    }
  }
  return progress;
}

void Worker::switch_enclave(sgxsim::EnclaveId enclave) {
  if (enclave == entered_) return;
  if (entered_ != sgxsim::kUntrusted) {
    sgxsim::detail::exit_enclave();
    entered_ = sgxsim::kUntrusted;
  }
  if (enclave != sgxsim::kUntrusted) {
    sgxsim::Enclave* e = sgxsim::EnclaveManager::instance().find(enclave);
    if (e != nullptr) {
      sgxsim::detail::enter_enclave(*e);
      entered_ = enclave;
    }
  }
}

// --- stealing scheduler ------------------------------------------------------

void Worker::push_own(Actor* actor, bool fresh_wakeup) {
  concurrent::RunQueue& q =
      actor->priority() == ActorPriority::kHigh ? high_q_ : norm_q_;
  // Fresh wakeups go to the front (their mailbox lines are warm); actors
  // that stayed ready after a run rotate to the back, which doubles as the
  // steal end — continuously-hot actors are exactly the ones worth
  // migrating. The queue cannot be full (capacity = total actors, and an
  // actor occupies at most one slot system-wide), but if a push is ever
  // refused the actor parks and the home poll tick rediscovers it — work
  // is delayed, never lost.
  const bool pushed = fresh_wakeup ? q.push_front(actor) : q.push_back(actor);
  if (!pushed) {
    actor->sched_state_.store(SchedState::kParked, std::memory_order_release);
  }
}

Actor* Worker::pop_own() {
  void* item = high_q_.pop_front();
  if (item == nullptr) item = norm_q_.pop_front();
  return static_cast<Actor*>(item);
}

bool Worker::steal_filter(void* item, const void* ctx) {
  const auto* thief = static_cast<const Worker*>(ctx);
  return thief->can_run(static_cast<Actor*>(item)->placement());
}

Actor* Worker::try_steal() {
  const std::size_t n = peers_.size();
  if (n <= 1) return nullptr;
  // xorshift64* victim rotation — cheap, deterministic per worker.
  victim_rng_ ^= victim_rng_ << 13;
  victim_rng_ ^= victim_rng_ >> 7;
  victim_rng_ ^= victim_rng_ << 17;
  const std::size_t start = static_cast<std::size_t>(victim_rng_ % n);
  for (std::size_t i = 0; i < n; ++i) {
    Worker* victim = peers_[(start + i) % n];
    if (victim == this) continue;
    if (victim->queue_depth() == 0) continue;  // lock-free probe
    void* item = victim->high_q_.steal_back(&Worker::steal_filter, this);
    if (item == nullptr) {
      item = victim->norm_q_.steal_back(&Worker::steal_filter, this);
    }
    if (item != nullptr) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      return static_cast<Actor*>(item);
    }
  }
  return nullptr;
}

bool Worker::poll_parked_home() {
  bool progress = false;
  for (Actor* actor : actors_) {
    // Only Runnable actors wake: dispatch() would skip any other and park
    // it again, and counting that as progress would keep the worker from
    // ever backing off. A restart or unpark makes it Runnable again, and
    // the next tick finds it still parked here.
    if (actor->sched_state_.load(std::memory_order_relaxed) !=
            SchedState::kParked ||
        actor->lifecycle() != ActorState::kRunnable) {
      continue;
    }
    if (actor->has_pending_work()) {
      // Mailbox activity: wake into the queue's hot end without running
      // the body here — the pop path dispatches it with full accounting.
      SchedState expected = SchedState::kParked;
      if (actor->sched_state_.compare_exchange_strong(
              expected, SchedState::kQueued, std::memory_order_acq_rel)) {
        push_own(actor, /*fresh_wakeup=*/true);
        progress = true;  // there is work now; don't back off
      }
      continue;
    }
    // No readiness signal (sources default has_pending_work() to false):
    // body-poll it. The CAS arbitrates with another home worker sharing
    // this actor.
    SchedState expected = SchedState::kParked;
    if (actor->sched_state_.compare_exchange_strong(
            expected, SchedState::kDispatched, std::memory_order_acq_rel)) {
      progress |= dispatch(*actor);
    }
  }
  return progress;
}

}  // namespace ea::core

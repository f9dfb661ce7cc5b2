#include "core/actor.hpp"

#include <exception>
#include <stdexcept>

#include "core/runtime.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace ea::core {

const char* to_string(ActorState state) noexcept {
  switch (state) {
    case ActorState::kRunnable:
      return "runnable";
    case ActorState::kFailed:
      return "failed";
    case ActorState::kRestarting:
      return "restarting";
    case ActorState::kQuarantined:
      return "quarantined";
    case ActorState::kMigrating:
      return "migrating";
  }
  return "unknown";
}

ChannelEnd* Actor::connect(const std::string& channel_name) {
  return runtime_->connect_channel(channel_name, placement(), this);
}

void Actor::record_failure(const char* what) noexcept {
  {
    concurrent::HleGuard guard(failure_lock_);
    last_error_ = what != nullptr ? what : "unknown";
    last_failure_invocation_ = invocations();
  }
  failures_.fetch_add(1, std::memory_order_relaxed);
  // Release: the supervisor's acquire load of state_ must observe the
  // failure record and every private-state write the body made before
  // throwing.
  state_.store(ActorState::kFailed, std::memory_order_release);
  EA_WARN("core", "actor %s failed (failure #%llu): %s", name_.c_str(),
          static_cast<unsigned long long>(failures()),
          what != nullptr ? what : "unknown");
}

FailureInfo Actor::last_failure() const {
  FailureInfo info;
  info.actor = name_;
  info.enclave = placement();
  info.failure_count = failures();
  concurrent::HleGuard guard(failure_lock_);
  info.what = last_error_;
  info.at_invocation = last_failure_invocation_;
  return info;
}

bool Actor::begin_restart() noexcept {
  ActorState expected = ActorState::kFailed;
  return state_.compare_exchange_strong(expected, ActorState::kRestarting,
                                        std::memory_order_acq_rel);
}

void Actor::complete_restart() noexcept {
  restarts_.fetch_add(1, std::memory_order_relaxed);
  stalled_.store(false, std::memory_order_relaxed);
  // Release: the worker's acquire load of kRunnable must observe every
  // reset on_restart() performed.
  state_.store(ActorState::kRunnable, std::memory_order_release);
}

void Actor::enter_quarantine() noexcept {
  state_.store(ActorState::kQuarantined, std::memory_order_release);
}

bool invoke_contained(Actor& actor, sgxsim::EnclaveId entered) {
  // Migration-barrier handshake (Dekker): publish "a body may be running"
  // BEFORE checking the lifecycle. The coordinator does the mirror-image
  // store(kMigrating, seq_cst) → load(executing_), so one of the two sides
  // always observes the other; a body can never slip in after the
  // coordinator concluded the actor is parked. A Runnable read after the
  // barrier also observes the placement the migration published before
  // unparking, which is what the `entered` check compares against.
  actor.executing_.store(true, std::memory_order_seq_cst);
  if (actor.state_.load(std::memory_order_seq_cst) != ActorState::kRunnable ||
      actor.placement() != entered) {
    actor.executing_.store(false, std::memory_order_release);
    return false;
  }
  actor.invocations_.fetch_add(1, std::memory_order_relaxed);
  try {
    // Injected abort-class fault, surfaced as an exception so the
    // containment path (rather than the process) absorbs it. Supervision
    // infrastructure is exempt: the tree's root heals others, nothing
    // heals it.
    if (!actor.fault_exempt_ && EA_FAIL_TRIGGERED("actor.body.throw")) {
      throw std::runtime_error("injected fault: actor.body.throw");
    }
    const bool progress = actor.body();
    actor.executing_.store(false, std::memory_order_release);
    return progress;
  } catch (const std::exception& e) {
    actor.record_failure(e.what());
  } catch (...) {
    actor.record_failure("non-standard exception");
  }
  actor.executing_.store(false, std::memory_order_release);
  return false;
}

}  // namespace ea::core

#include "core/supervisor.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/runtime.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace ea::core {

SupervisorActor::SupervisorActor(std::string name, Options options)
    : Actor(std::move(name)), options_(options) {
  // Root of the supervision tree: injected body faults are absorbed by
  // everyone *below* it; nothing heals the healer.
  fault_exempt_ = true;
  // Containment sweeps run high priority under the stealing scheduler so
  // failed actors are healed even when the run queues are saturated.
  set_priority(ActorPriority::kHigh);
}

void SupervisorActor::ignore(const std::string& actor) {
  ignored_.push_back(actor);
}

void SupervisorActor::construct(Runtime& rt) {
  // Snapshot the deployment. Actors are never removed from the runtime, so
  // the raw pointers stay valid for the runtime's lifetime. Install the
  // supervisor *last* so this sees every actor.
  for (const auto& actor : rt.actors()) {
    if (actor.get() == this) continue;
    if (std::find(ignored_.begin(), ignored_.end(), actor->name()) !=
        ignored_.end()) {
      continue;
    }
    Watch w;
    w.actor = actor.get();
    // Distinct jitter stream per watch, deterministic given options_.seed.
    ++seed_counter_;
    w.backoff = BackoffSchedule(options_.default_policy.backoff,
                                options_.seed + seed_counter_ * 0x9e3779b9ULL);
    w.last_invocations = actor->invocations();
    watches_.push_back(std::move(w));
  }
  next_sweep_ = Clock::now();
  EA_INFO("core", "supervisor %s watching %zu actors", name().c_str(),
          watches_.size());
}

bool SupervisorActor::body() {
  Clock::time_point now = Clock::now();
  if (now < next_sweep_) return false;
  next_sweep_ = now + std::chrono::microseconds(options_.sweep_interval_us);
  std::uint64_t before = restarts_ + restart_failures_ + quarantines_;
  sweep(now);
  ++sweeps_;
  return restarts_ + restart_failures_ + quarantines_ != before;
}

void SupervisorActor::sweep(Clock::time_point now) {
  for (Watch& w : watches_) {
    switch (w.actor->lifecycle()) {
      case ActorState::kFailed:
        handle_failed(w, now);
        break;
      case ActorState::kRunnable:
        // A full healthy window earns the actor a fresh backoff schedule.
        prune_window(w, now);
        if (w.window.empty() && w.backoff.attempts() != 0) w.backoff.reset();
        watchdog(w);
        break;
      case ActorState::kRestarting:   // only this thread restarts; unreachable
      case ActorState::kQuarantined:  // terminal
      case ActorState::kMigrating:    // parked at the migration barrier; the
                                      // coordinator owns the exit transition
                                      // and rolls back on failure — never
                                      // restart or quarantine a mid-flight
                                      // actor (DESIGN.md §17)
        break;
    }
  }
}

void SupervisorActor::handle_failed(Watch& w, Clock::time_point now) {
  if (!w.restart_pending) {
    prune_window(w, now);
    if (w.window.size() >= options_.default_policy.max_restarts) {
      quarantine(w);
      return;
    }
    std::uint64_t delay_us = w.backoff.next_delay_us();
    w.restart_at = now + std::chrono::microseconds(delay_us);
    w.restart_pending = true;
    w.failures_seen = w.actor->failures();
    EA_INFO("core", "supervisor: restart of %s in %llu us (attempt %llu)",
            w.actor->name().c_str(), static_cast<unsigned long long>(delay_us),
            static_cast<unsigned long long>(w.backoff.attempts()));
    return;
  }
  if (now >= w.restart_at) perform_restart(w, now);
}

void SupervisorActor::perform_restart(Watch& w, Clock::time_point now) {
  w.restart_pending = false;
  if (!w.actor->begin_restart()) return;  // lost a race; re-evaluate next sweep
  try {
    if (EA_FAIL_TRIGGERED("supervisor.restart.fail")) {
      throw std::runtime_error("injected fault: supervisor.restart.fail");
    }
    run_in_placement(*w.actor, [&] { w.actor->on_restart(); });
    w.actor->complete_restart();
    w.window.push_back(now);
    w.failures_seen = w.actor->failures();
    w.last_invocations = w.actor->invocations();
    w.idle_sweeps = 0;
    ++restarts_;
    EA_INFO("core", "supervisor: restarted %s (restart #%u)",
            w.actor->name().c_str(), w.actor->restarts());
  } catch (const std::exception& e) {
    // A throwing on_restart() counts as a fresh failure: back to Failed,
    // the backoff keeps growing (the window only records *completed*
    // restarts, so it cannot mask a restart loop).
    w.actor->record_failure(e.what());
    ++restart_failures_;
  } catch (...) {
    w.actor->record_failure("non-standard exception in on_restart()");
    ++restart_failures_;
  }
}

void SupervisorActor::quarantine(Watch& w) {
  FailureInfo info = w.actor->last_failure();
  w.actor->enter_quarantine();
  try {
    run_in_placement(*w.actor, [&] { w.actor->on_quarantine(); });
  } catch (const std::exception& e) {
    EA_WARN("core", "supervisor: on_quarantine() of %s threw: %s",
            w.actor->name().c_str(), e.what());
  } catch (...) {
    EA_WARN("core", "supervisor: on_quarantine() of %s threw",
            w.actor->name().c_str());
  }
  ++quarantines_;
  EA_WARN("core", "supervisor: quarantined %s after %llu failures (last: %s)",
          w.actor->name().c_str(),
          static_cast<unsigned long long>(info.failure_count),
          info.what.c_str());
  if (escalate_) escalate_(info);
}

void SupervisorActor::watchdog(Watch& w) {
  std::uint64_t inv = w.actor->invocations();
  if (inv != w.last_invocations) {
    w.last_invocations = inv;
    w.idle_sweeps = 0;
    if (w.actor->stalled()) {
      w.actor->stalled_.store(false, std::memory_order_relaxed);
    }
    return;
  }
  if (!w.actor->has_pending_work()) {
    w.idle_sweeps = 0;  // idle with an empty inbox is healthy
    return;
  }
  if (++w.idle_sweeps >= options_.default_policy.stall_rounds &&
      !w.actor->stalled()) {
    w.actor->stalled_.store(true, std::memory_order_relaxed);
    ++stalls_flagged_;
    EA_WARN("core", "supervisor: %s stalled (%llu invocations, work pending)",
            w.actor->name().c_str(), static_cast<unsigned long long>(inv));
  }
}

void SupervisorActor::prune_window(Watch& w, Clock::time_point now) const {
  Clock::time_point cutoff =
      now - std::chrono::microseconds(options_.default_policy.window_us);
  w.window.erase(
      std::remove_if(w.window.begin(), w.window.end(),
                     [cutoff](Clock::time_point t) { return t < cutoff; }),
      w.window.end());
}

SupervisorActor& install_supervisor(Runtime& rt,
                                    SupervisorActor::Options options,
                                    const std::string& name) {
  auto sup = std::make_unique<SupervisorActor>(name, options);
  SupervisorActor& ref = *sup;
  rt.add_actor(std::move(sup));  // untrusted: it enters enclaves on demand
  rt.add_group({name + ".worker", name + ".worker", {name}});
  return ref;
}

}  // namespace ea::core

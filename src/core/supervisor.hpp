// Supervision system actor (DESIGN.md §12).
//
// The worker loop contains failures (core/actor.hpp: an exception escaping
// body() moves the actor to Failed); this actor is the policy half — the
// CAF-style monitor that turns containment into self-healing:
//
//   * one-for-one restart: a Failed actor is restarted (on_restart(), run
//     inside its enclave) after an exponential-backoff-with-jitter delay;
//   * restart budget: more than `max_restarts` restarts within a sliding
//     `window_us` window quarantines the actor (on_quarantine() drains its
//     pending nodes back to their pools so conservation holds) and fires
//     the escalation callback;
//   * stall watchdog: an actor whose invocations() counter has not moved
//     across `stall_rounds` supervisor sweeps while has_pending_work()
//     reports queued input is flagged stalled in the health snapshot.
//
// The supervisor is itself an eactor: it runs on a worker, never blocks,
// and paces itself with a steady-clock sweep interval. It is the root of
// the supervision tree — nothing restarts it, so it is exempt from the
// injected `actor.body.throw` fault (see invoke_contained()).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/actor.hpp"
#include "core/backoff.hpp"

namespace ea::core {

class Runtime;

// Restart policy, applied to every watched actor.
struct RestartPolicy {
  BackoffPolicy backoff{/*initial_us=*/1000, /*max_us=*/100000,
                        /*multiplier=*/2, /*jitter_pct=*/20};
  std::uint32_t max_restarts = 5;        // budget within the sliding window
  std::uint64_t window_us = 10'000'000;  // sliding-window length
  std::uint32_t stall_rounds = 8;        // sweeps without progress => stalled
};

// Namespace-scope (not nested) so it can serve as a defaulted constructor
// argument while SupervisorActor is still incomplete.
struct SupervisorOptions {
  std::uint64_t sweep_interval_us = 500;  // min distance between sweeps
  RestartPolicy default_policy;
  std::uint64_t seed = 0x5eed;  // jitter seed (deterministic tests)
};

class SupervisorActor : public Actor {
 public:
  using Options = SupervisorOptions;
  using EscalationFn = std::function<void(const FailureInfo&)>;

  explicit SupervisorActor(std::string name, Options options = {});

  // Excludes an actor from supervision entirely. Pre-start only.
  void ignore(const std::string& actor);

  // Called (from the supervisor's worker thread) when an actor is
  // quarantined. Pre-start only.
  void set_escalation(EscalationFn fn) { escalate_ = std::move(fn); }

  // Snapshots the runtime's actor list: every actor except this one (and
  // the ignored set) is watched.
  void construct(Runtime& rt) override;

  bool body() override;

  // --- counters for tests / health ---------------------------------------
  std::uint64_t sweeps() const noexcept { return sweeps_; }
  std::uint64_t restarts_performed() const noexcept { return restarts_; }
  std::uint64_t restart_failures() const noexcept { return restart_failures_; }
  std::uint64_t quarantines() const noexcept { return quarantines_; }
  std::uint64_t stalls_flagged() const noexcept { return stalls_flagged_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Watch {
    Actor* actor = nullptr;
    BackoffSchedule backoff;
    // Failure generation already scheduled/handled (vs actor->failures()).
    std::uint64_t failures_seen = 0;
    bool restart_pending = false;
    Clock::time_point restart_at{};
    // Completed restart timestamps inside the sliding window.
    std::vector<Clock::time_point> window;
    // Stall watchdog.
    std::uint64_t last_invocations = 0;
    std::uint32_t idle_sweeps = 0;
  };

  void sweep(Clock::time_point now);
  void handle_failed(Watch& w, Clock::time_point now);
  void perform_restart(Watch& w, Clock::time_point now);
  void quarantine(Watch& w);
  void watchdog(Watch& w);
  void prune_window(Watch& w, Clock::time_point now) const;

  // All supervisor state below is single-threaded by construction: it is
  // built during construct() (pre-start) and then touched only from body(),
  // which runs one quantum at a time — dispatch, not a lock, so no
  // capability annotations apply (DESIGN.md §13). Cross-thread reads of
  // watched actors go through the atomics in core/actor.hpp; the actors'
  // failure records are behind Actor::failure_lock_ (kActorFailure).
  Options options_;
  std::vector<std::string> ignored_;
  EscalationFn escalate_;

  std::vector<Watch> watches_;
  Clock::time_point next_sweep_{};
  std::uint64_t seed_counter_ = 0;

  std::uint64_t sweeps_ = 0;
  std::uint64_t restarts_ = 0;
  std::uint64_t restart_failures_ = 0;
  std::uint64_t quarantines_ = 0;
  std::uint64_t stalls_flagged_ = 0;
};

// Adds a SupervisorActor (untrusted) in its own worker group. Call after
// every other actor has been added and before rt.start(). Returns the actor
// so callers can set policies/escalation before start.
SupervisorActor& install_supervisor(Runtime& rt,
                                    SupervisorActor::Options options = {},
                                    const std::string& name = "core.supervisor");

}  // namespace ea::core

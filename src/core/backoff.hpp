// Deterministic exponential backoff with jitter.
//
// Shared by the supervision layer (restart pacing), the channel link
// (redial pacing, net/channel_link.hpp) and the XMPP client (reconnect
// pacing), so every retry loop in the system obeys the same shape:
// exponential growth from `initial_us`, hard-capped at `max_us`, with a
// ±`jitter_pct` spread so a fleet of retriers does not synchronise into
// thundering herds.
//
// The jitter source is an explicitly seeded xorshift generator: two
// schedules constructed with the same policy and seed produce bit-identical
// delay sequences, which is what makes restart behaviour testable (the
// supervision unit tests assert the schedule, not a distribution).
#pragma once

#include <cstdint>

namespace ea::core {

struct BackoffPolicy {
  std::uint32_t initial_us = 1000;   // first delay
  std::uint32_t max_us = 100000;     // cap (also bounds a single retry wait)
  std::uint32_t multiplier = 2;      // growth factor per attempt
  std::uint32_t jitter_pct = 20;     // ± percent spread around the base
};

class BackoffSchedule {
 public:
  explicit BackoffSchedule(BackoffPolicy policy = {}, std::uint64_t seed = 1)
      : policy_(policy), rng_(seed != 0 ? seed : 1), base_us_(policy.initial_us) {}

  // Delay for the next attempt, advancing the schedule. Deterministic for
  // a given (policy, seed, attempt index).
  std::uint64_t next_delay_us() noexcept {
    ++attempts_;
    const std::uint64_t base = base_us_;
    // Advance the exponential base, saturating at the cap.
    if (base_us_ < policy_.max_us) {
      const std::uint64_t grown =
          base_us_ * (policy_.multiplier > 1 ? policy_.multiplier : 2);
      base_us_ = grown > policy_.max_us ? policy_.max_us : grown;
    }
    if (policy_.jitter_pct == 0) return base;
    // base * (1 ± jitter): pick a point in [base - spread, base + spread].
    const std::uint64_t spread = base * policy_.jitter_pct / 100;
    if (spread == 0) return base;
    const std::uint64_t lo = base - spread;
    return lo + next_rand() % (2 * spread + 1);
  }

  // Number of attempts issued since construction / the last reset.
  std::uint32_t attempts() const noexcept { return attempts_; }

  // Back to the initial delay (after a period of stability). The jitter
  // stream is NOT rewound — only the exponential base resets.
  void reset() noexcept {
    base_us_ = policy_.initial_us;
    attempts_ = 0;
  }

  const BackoffPolicy& policy() const noexcept { return policy_; }

 private:
  std::uint64_t next_rand() noexcept {
    // xorshift64*: cheap, seedable, good enough for jitter.
    std::uint64_t x = rng_;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    rng_ = x;
    return x * 0x2545f4914f6cdd1dull;
  }

  BackoffPolicy policy_;
  std::uint64_t rng_;
  std::uint64_t base_us_;
  std::uint32_t attempts_ = 0;
};

}  // namespace ea::core

// The four workloads and the output checks the self-test drives directly.
// WORKLOADS.md records why each workload exists and what it should leave
// unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "bench.hpp"
#include "smc/secure_sum.hpp"

namespace perfbench {

WorkloadResult run_smc_ring(const RunConfig& config);
WorkloadResult run_xmpp_echo(const RunConfig& config);
WorkloadResult run_kv_mixed(const RunConfig& config);
WorkloadResult run_migrate(const RunConfig& config);

// Microbenchmarks of single public calls (AEAD, trusted RNG, X25519,
// attested exchange, sealing) — the costs the workloads' requests pay.
void run_layer_probes(std::map<std::string, double>& layer);

// --- output checks ----------------------------------------------------------

// smc_ring: a published sum must equal the sum of the parties' secrets.
bool sum_matches(std::span<const std::uint8_t> result,
                 const ea::smc::Vec& expected);

// kv_mixed: a value embeds its key index and a checksum over both.
inline constexpr std::size_t kKvValueBytes = 64;
void make_kv_value(std::uint32_t key_index, std::uint32_t version,
                   std::uint8_t (&out)[kKvValueBytes]);
bool kv_value_ok(std::uint32_t key_index, std::span<const std::uint8_t> value);

// migrate: sequence check of the driver's acknowledgements.
class SequenceCheck {
 public:
  // True when `seq` is the next expected number; a gap or reorder counts
  // one failure and resynchronises on `seq`.
  bool accept(std::uint64_t seq) noexcept {
    const bool in_order = seq == next_;
    next_ = seq + 1;
    return in_order;
  }

 private:
  std::uint64_t next_ = 0;
};

// Runs the self-tests; returns the process exit code.
int run_self_test();

// Self-test hooks into the live workloads.
// Sends one chat of `body_bytes` through a fresh xmpp_echo deployment with
// the given deadline and reports its outcome.
Outcome xmpp_single_echo(std::size_t body_bytes,
                         std::chrono::milliseconds deadline);
// Runs the migrate loop for `moves` moves with the echo actor dropping the
// driver message numbered `drop_seq`; returns the driver's outcome.
Outcome migrate_with_drop(std::uint64_t moves, std::uint64_t drop_seq);

}  // namespace perfbench

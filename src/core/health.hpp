// Runtime health snapshot (DESIGN.md §12).
//
// A single structured view of the deployment's liveness — per-actor
// lifecycle state and restart counters, channel integrity counters, pool
// exhaustion — assembled by Runtime::health(). The supervisor's escalation
// callbacks, operators and the test suite consume this instead of poking
// runtime internals; everything here is computed from lock-free or
// briefly-locked counters and is safe to read while workers run.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/actor.hpp"
#include "sgxsim/enclave.hpp"

namespace ea::core {

struct ActorHealth {
  std::string name;
  ActorState state = ActorState::kRunnable;
  sgxsim::EnclaveId enclave = sgxsim::kUntrusted;
  std::uint64_t invocations = 0;
  std::uint64_t failures = 0;   // contained construct()/body()/restart throws
  std::uint32_t restarts = 0;   // successful supervisor restarts
  bool stalled = false;         // watchdog: queued work but no progress
  std::string last_error;       // what() of the most recent failure
};

struct ChannelHealth {
  std::string name;
  bool encrypted = false;
  std::uint64_t auth_failures = 0;  // dropped: AEAD authentication failed
  std::uint64_t frame_errors = 0;   // dropped: failed re-seal on a rebind
};

struct PoolHealth {
  std::size_t free = 0;           // approximate free nodes right now
  std::size_t capacity = 0;       // nodes ever adopted
  std::uint64_t exhaustions = 0;  // get() calls that found the pool empty
};

struct WorkerHealth {
  std::string name;
  std::uint64_t rounds = 0;
  std::uint64_t dispatches = 0;   // actor executions by this worker
  std::uint64_t steals = 0;       // dispatches taken from a victim's queue
  std::size_t queue_depth = 0;    // ready actors sitting in its run queues
  std::size_t ready_actors = 0;   // home actors not parked (queued/running)
};

// Per-enclave EPC accounting (DESIGN.md §17): `committed` is the enclave's
// registered footprint (base pages + actor state, migration moves the
// actor's share between enclaves), `epc_usable` the machine-wide usable EPC
// from the cost model (~93 MiB before paging). Every enclave shares that
// one EPC: sgxsim charges paging on the sum of `committed` over all
// enclaves (EnclaveManager::overflow_pages()), which no migration changes.
struct EnclaveHealth {
  sgxsim::EnclaveId id = sgxsim::kUntrusted;
  std::string name;
  std::uint64_t committed = 0;
  std::uint64_t epc_usable = 0;
};

struct HealthSnapshot {
  std::vector<ActorHealth> actors;
  std::vector<ChannelHealth> channels;
  std::vector<WorkerHealth> workers;
  std::vector<EnclaveHealth> enclaves;
  PoolHealth pool;  // the runtime's public pool

  // Lookup helpers; nullptr when `name` is unknown.
  const ActorHealth* actor(std::string_view name) const noexcept;
  const WorkerHealth* worker(std::string_view name) const noexcept;
  const EnclaveHealth* enclave_by_name(std::string_view name) const noexcept;

  // Deployment-level predicates the soak tests assert on.
  std::size_t count_in_state(ActorState state) const noexcept;

  std::string to_string() const;
};

}  // namespace ea::core

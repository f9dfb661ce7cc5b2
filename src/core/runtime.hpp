// The EActors runtime (paper §3.2).
//
// The runtime owns enclaves, actors, workers, channels and the preallocated
// public node pool. Startup order follows the paper: create the enclaves,
// allocate private state, call the actors' constructors (inside their
// enclaves), then create and start the workers.
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "concurrent/arena.hpp"
#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/actor.hpp"
#include "core/channel.hpp"
#include "core/health.hpp"
#include "core/worker.hpp"
#include "sgxsim/enclave.hpp"

namespace ea::core {

struct RuntimeOptions {
  // Public message pool preallocation.
  std::size_t pool_nodes = 4096;
  std::size_t node_payload_bytes = 2048;
  // Scheduler (DESIGN.md §14): kStatic is the paper's fixed round-robin
  // mapping (and the ablation baseline); kSteal enables per-worker run
  // queues with affinity-filtered work stealing.
  SchedMode sched = SchedMode::kStatic;
};

// Actors an installer wants run together on one worker. Groups of one
// role do the same job (every XMPP instance, every READER/WRITER pair), so
// the placement rule may put several of them on one worker.
struct WorkerGroup {
  std::string name;
  std::string role;
  std::vector<std::string> actors;
};

// A worker the placement rule creates, pinned to `cpu`.
struct PlacedWorker {
  std::string name;
  int cpu = 0;
  std::vector<std::string> actors;
};

// The placement rule (DESIGN.md §14 "Placement"). Groups that fit in
// `cpus` get one worker each, pinned in declaration order to CPUs 0, 1, ...
// Otherwise they share at most `cpus` workers: each role gets a worker
// while there are CPUs for every role (roles fold round-robin onto the
// workers when there are not), spare CPUs go to the roles with the most
// groups per worker, and a role's groups are dealt round-robin over its
// workers.
std::vector<PlacedWorker> place_groups(const std::vector<WorkerGroup>& groups,
                                       int cpus);

class Runtime {
 public:
  explicit Runtime(RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- deployment construction -------------------------------------------

  // Returns the named enclave, creating it on first use.
  sgxsim::Enclave& enclave(const std::string& name);

  // Adds an actor, deployed untrusted (enclave_name empty) or into the
  // named enclave. Returns a reference to the stored actor.
  Actor& add_actor(std::unique_ptr<Actor> actor,
                   const std::string& enclave_name = "");

  // Creates a worker bound to `cpus` executing `actor_names` round-robin.
  // An explicit worker runs as written and takes its actors out of any
  // declared group.
  Worker& add_worker(const std::string& name, std::vector<int> cpus,
                     const std::vector<std::string>& actor_names);

  // Declares a worker group (installers call this instead of choosing
  // CPUs); start() turns the groups into workers by place_groups().
  void add_group(WorkerGroup group);

  const std::vector<WorkerGroup>& groups() const noexcept { return groups_; }
  // An installer may add its actors to a declared group before start().
  std::vector<WorkerGroup>& groups() noexcept { return groups_; }

  // Declares (or retrieves) a channel. Actors bind to it via
  // Actor::connect() inside their constructor functions.
  Channel& channel(const std::string& name, ChannelOptions options = {});

  Actor* find_actor(const std::string& name);

  // --- execution ----------------------------------------------------------

  // Places the declared groups on at most one worker per online CPU,
  // calls every actor's constructor (inside its enclave) and starts all
  // workers. Idempotent per runtime instance.
  void start();

  // Stops and joins all workers.
  void stop();

  // True while workers are running. Read from worker threads (the
  // migration coordinator gates live-vs-prestart paths on it), so the
  // flag is atomic: start()'s store releases, readers acquire.
  bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  // --- shared resources ----------------------------------------------------

  concurrent::Pool& public_pool() noexcept { return pool_; }

  // Allocates a dedicated arena + pool (e.g. a large-payload pool for a
  // high-throughput channel). The runtime owns the memory.
  concurrent::Pool& make_pool(std::size_t nodes, std::size_t payload_bytes);

  const std::vector<std::unique_ptr<Worker>>& workers() const noexcept {
    return workers_;
  }

  const std::vector<std::unique_ptr<Actor>>& actors() const noexcept {
    return actors_;
  }

  // Structured health snapshot (per-actor lifecycle state, restart counts,
  // channel frame/auth errors, per-worker scheduling counters, pool
  // exhaustion) — the supervision layer and tests consume this instead of
  // poking runtime internals; HealthSnapshot::to_string() is the
  // human-readable dump (enclave transition totals live in
  // sgxsim::transition_stats()). Safe to call while running.
  HealthSnapshot health() const;

  // All channels, keyed by name (migration walks these to find the ends a
  // moving actor owns; also handy for diagnostics).
  const std::map<std::string, std::unique_ptr<Channel>>& channels()
      const noexcept {
    return channels_;
  }

  // Enclaves this runtime created, keyed by name.
  const std::map<std::string, sgxsim::Enclave*>& enclaves() const noexcept {
    return enclaves_;
  }

 private:
  friend class Actor;
  ChannelEnd* connect_channel(const std::string& name,
                              sgxsim::EnclaveId placement, Actor* owner);

  RuntimeOptions options_;
  concurrent::NodeArena arena_;
  concurrent::Pool pool_;
  std::vector<std::unique_ptr<concurrent::NodeArena>> extra_arenas_;
  std::vector<std::unique_ptr<concurrent::Pool>> extra_pools_;

  std::map<std::string, sgxsim::Enclave*> enclaves_;
  std::vector<std::unique_ptr<Actor>> actors_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<WorkerGroup> groups_;
  std::map<std::string, std::unique_ptr<Channel>> channels_;
  bool started_ = false;
  std::atomic<bool> running_{false};
};

}  // namespace ea::core

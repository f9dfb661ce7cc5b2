#include "core/runtime.hpp"

#include <algorithm>
#include <stdexcept>

#include "sgxsim/transition.hpp"
#include "util/affinity.hpp"
#include "util/logging.hpp"

namespace ea::core {

Runtime::Runtime(RuntimeOptions options)
    : options_(options),
      arena_(options_.pool_nodes, options_.node_payload_bytes) {
  pool_.adopt(arena_);
}

Runtime::~Runtime() { stop(); }

sgxsim::Enclave& Runtime::enclave(const std::string& name) {
  auto it = enclaves_.find(name);
  if (it != enclaves_.end()) return *it->second;
  sgxsim::Enclave& e = sgxsim::EnclaveManager::instance().create(name);
  enclaves_.emplace(name, &e);
  return e;
}

Actor& Runtime::add_actor(std::unique_ptr<Actor> actor,
                          const std::string& enclave_name) {
  if (started_) throw std::logic_error("add_actor after start");
  actor->runtime_ = this;
  if (!enclave_name.empty()) {
    sgxsim::Enclave& e = enclave(enclave_name);
    actor->placement_ = e.id();
    e.add_committed(actor->state_bytes());
  }
  actors_.push_back(std::move(actor));
  return *actors_.back();
}

Worker& Runtime::add_worker(const std::string& name, std::vector<int> cpus,
                            const std::vector<std::string>& actor_names) {
  if (started_) throw std::logic_error("add_worker after start");
  auto worker = std::make_unique<Worker>(name, std::move(cpus));
  for (const std::string& actor_name : actor_names) {
    Actor* actor = find_actor(actor_name);
    if (actor == nullptr) {
      throw std::invalid_argument("worker " + name + ": unknown actor " +
                                  actor_name);
    }
    worker->assign(actor);
  }
  workers_.push_back(std::move(worker));
  return *workers_.back();
}

void Runtime::add_group(WorkerGroup group) {
  if (started_) throw std::logic_error("add_group after start");
  groups_.push_back(std::move(group));
}

std::vector<PlacedWorker> place_groups(const std::vector<WorkerGroup>& groups,
                                       int cpus) {
  const std::size_t n = static_cast<std::size_t>(std::max(cpus, 1));
  std::vector<PlacedWorker> out;
  if (groups.size() <= n) {
    for (const WorkerGroup& g : groups) {
      out.push_back({g.name, static_cast<int>(out.size()), g.actors});
    }
    return out;
  }
  struct Role {
    std::string name;
    std::vector<const WorkerGroup*> groups;
    std::size_t workers;
  };
  std::vector<Role> roles;  // in declaration order
  for (const WorkerGroup& g : groups) {
    auto it = std::find_if(roles.begin(), roles.end(),
                           [&](const Role& r) { return r.name == g.role; });
    if (it == roles.end()) {
      it = roles.insert(roles.end(), Role{g.role, {}, 1});
    }
    it->groups.push_back(&g);
  }
  // More roles than CPUs: whole roles fold round-robin onto n workers.
  for (std::size_t r = n; r < roles.size(); ++r) {
    Role& into = roles[r % n];
    into.name += "+" + roles[r].name;
    into.groups.insert(into.groups.end(), roles[r].groups.begin(),
                       roles[r].groups.end());
  }
  roles.resize(std::min(roles.size(), n));
  // Each spare CPU goes to the role with the most groups per worker (the
  // first declared on a tie). Total workers stay below the group count,
  // so that role always has more groups than workers.
  for (std::size_t spare = n - roles.size(); spare > 0; --spare) {
    Role* most = &roles.front();
    for (Role& r : roles) {
      if (r.groups.size() * most->workers > most->groups.size() * r.workers) {
        most = &r;
      }
    }
    ++most->workers;
  }
  for (const Role& r : roles) {
    const std::size_t first = out.size();
    for (std::size_t w = 0; w < r.workers; ++w) {
      std::string name = r.name;
      if (r.workers > 1) {
        name += '.';
        name += std::to_string(w);
      }
      out.push_back({std::move(name), static_cast<int>(out.size()), {}});
    }
    for (std::size_t k = 0; k < r.groups.size(); ++k) {
      std::vector<std::string>& actors = out[first + k % r.workers].actors;
      actors.insert(actors.end(), r.groups[k]->actors.begin(),
                    r.groups[k]->actors.end());
    }
  }
  return out;
}

Channel& Runtime::channel(const std::string& name, ChannelOptions options) {
  auto it = channels_.find(name);
  if (it != channels_.end()) return *it->second;
  auto ch = std::make_unique<Channel>(name, options, pool_);
  Channel& ref = *ch;
  channels_.emplace(name, std::move(ch));
  return ref;
}

Actor* Runtime::find_actor(const std::string& name) {
  for (auto& actor : actors_) {
    if (actor->name() == name) return actor.get();
  }
  return nullptr;
}

ChannelEnd* Runtime::connect_channel(const std::string& name,
                                     sgxsim::EnclaveId placement,
                                     Actor* owner) {
  ChannelEnd* end = channel(name).connect(placement, owner);
  if (end == nullptr) {
    throw std::logic_error("channel " + name + " already fully connected");
  }
  return end;
}

void Runtime::start() {
  if (started_) return;
  // Declared groups become workers by the placement rule, minus the actors
  // an explicit add_worker() already runs.
  std::vector<WorkerGroup> groups = groups_;
  for (auto& worker : workers_) {
    for (Actor* actor : worker->actors()) {
      for (WorkerGroup& g : groups) std::erase(g.actors, actor->name());
    }
  }
  std::erase_if(groups, [](const WorkerGroup& g) { return g.actors.empty(); });
  for (const PlacedWorker& w : place_groups(groups, util::online_cpus())) {
    add_worker(w.name, {w.cpu}, w.actors);
  }
  started_ = true;
  // Constructor functions run inside their actor's enclave, as the
  // generated EActors runtime does after creating the enclaves. A throwing
  // constructor is contained like a throwing body (DESIGN.md §12): the
  // actor starts out Failed and the rest of the deployment comes up — the
  // supervisor may later restart it via on_restart().
  for (auto& actor : actors_) {
    try {
      run_in_placement(*actor, [&] { actor->construct(*this); });
    } catch (const std::exception& e) {
      actor->record_failure(e.what());
    } catch (...) {
      actor->record_failure("non-standard exception in construct()");
    }
  }
  // Wire the scheduler before any thread runs: in steal mode every worker
  // learns the full worker list (steal victims), derives its enclave
  // affinity mask from its home actors, and sizes its run queues to the
  // total actor count (an actor occupies at most one queue slot
  // system-wide, so the queues can never overflow).
  std::vector<Worker*> peers;
  peers.reserve(workers_.size());
  for (auto& worker : workers_) peers.push_back(worker.get());
  for (auto& worker : workers_) {
    worker->configure_sched(options_.sched, peers, actors_.size());
  }
  for (auto& worker : workers_) worker->start();
  running_.store(true, std::memory_order_release);
  EA_INFO("core",
          "runtime started: %zu actors, %zu workers, %zu enclaves, sched=%s",
          actors_.size(), workers_.size(), enclaves_.size(),
          to_string(options_.sched));
}

void Runtime::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  for (auto& worker : workers_) worker->request_stop();
  for (auto& worker : workers_) worker->join();
  running_.store(false, std::memory_order_release);
}

HealthSnapshot Runtime::health() const {
  HealthSnapshot snap;
  snap.actors.reserve(actors_.size());
  for (const auto& actor : actors_) {
    ActorHealth a;
    a.name = actor->name();
    a.state = actor->lifecycle();
    a.enclave = actor->placement();
    a.invocations = actor->invocations();
    a.failures = actor->failures();
    a.restarts = actor->restarts();
    a.stalled = actor->stalled();
    if (a.failures != 0) a.last_error = actor->last_failure().what;
    snap.actors.push_back(std::move(a));
  }
  snap.channels.reserve(channels_.size());
  for (const auto& [name, channel] : channels_) {
    ChannelHealth c;
    c.name = name;
    c.encrypted = channel->encrypted();
    c.auth_failures = channel->auth_failures();
    c.frame_errors = channel->frame_errors();
    snap.channels.push_back(std::move(c));
  }
  snap.workers.reserve(workers_.size());
  for (const auto& worker : workers_) {
    WorkerHealth w;
    w.name = worker->name();
    w.rounds = worker->rounds();
    w.dispatches = worker->dispatches();
    w.steals = worker->steals();
    w.queue_depth = worker->queue_depth();
    w.ready_actors = worker->ready_home_actors();
    snap.workers.push_back(std::move(w));
  }
  snap.enclaves.reserve(enclaves_.size());
  const std::uint64_t epc_usable = sgxsim::cost_model().epc_usable_bytes;
  for (const auto& [name, enclave] : enclaves_) {
    EnclaveHealth e;
    e.id = enclave->id();
    e.name = name;
    e.committed = enclave->committed_bytes();
    e.epc_usable = epc_usable;
    snap.enclaves.push_back(std::move(e));
  }
  snap.pool.free = pool_.size();
  snap.pool.capacity = pool_.capacity();
  snap.pool.exhaustions = pool_.exhaustions();
  return snap;
}

concurrent::Pool& Runtime::make_pool(std::size_t nodes,
                                     std::size_t payload_bytes) {
  extra_arenas_.push_back(
      std::make_unique<concurrent::NodeArena>(nodes, payload_bytes));
  extra_pools_.push_back(std::make_unique<concurrent::Pool>());
  extra_pools_.back()->adopt(*extra_arenas_.back());
  return *extra_pools_.back();
}

}  // namespace ea::core

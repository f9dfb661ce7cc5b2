#include "core/health.hpp"

namespace ea::core {

const ActorHealth* HealthSnapshot::actor(std::string_view name) const noexcept {
  for (const ActorHealth& a : actors) {
    if (a.name == name) return &a;
  }
  return nullptr;
}

const WorkerHealth* HealthSnapshot::worker(
    std::string_view name) const noexcept {
  for (const WorkerHealth& w : workers) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const EnclaveHealth* HealthSnapshot::enclave_by_name(
    std::string_view name) const noexcept {
  for (const EnclaveHealth& e : enclaves) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::size_t HealthSnapshot::count_in_state(ActorState state) const noexcept {
  std::size_t n = 0;
  for (const ActorHealth& a : actors) {
    if (a.state == state) ++n;
  }
  return n;
}

std::string HealthSnapshot::to_string() const {
  std::string out;
  out += "health: pool " + std::to_string(pool.free) + "/" +
         std::to_string(pool.capacity) + " free, " +
         std::to_string(pool.exhaustions) + " exhaustions\n";
  for (const ActorHealth& a : actors) {
    out += "  actor " + a.name + ": " + ea::core::to_string(a.state) + ", " +
           std::to_string(a.invocations) + " activations, " +
           std::to_string(a.failures) + " failures, " +
           std::to_string(a.restarts) + " restarts" +
           (a.stalled ? ", STALLED" : "");
    if (!a.last_error.empty()) out += " (last: " + a.last_error + ")";
    out += '\n';
  }
  for (const ChannelHealth& c : channels) {
    out += "  channel " + c.name + ": " +
           (c.encrypted ? "encrypted" : "plain") + ", " +
           std::to_string(c.auth_failures) + " auth failures, " +
           std::to_string(c.frame_errors) + " frame errors\n";
  }
  for (const WorkerHealth& w : workers) {
    out += "  worker " + w.name + ": " + std::to_string(w.rounds) +
           " rounds, " + std::to_string(w.dispatches) + " dispatches, " +
           std::to_string(w.steals) + " steals, queue_depth " +
           std::to_string(w.queue_depth) + ", ready_actors " +
           std::to_string(w.ready_actors) + '\n';
  }
  for (const EnclaveHealth& e : enclaves) {
    out += "  enclave " + e.name + " (id " + std::to_string(e.id) + "): " +
           std::to_string(e.committed) + " bytes committed of " +
           std::to_string(e.epc_usable) + " usable EPC\n";
  }
  return out;
}

}  // namespace ea::core

#include "core/channel.hpp"

#include <cstring>
#include <vector>

#include "core/actor.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace ea::core {

Channel::Channel(std::string name, ChannelOptions options,
                 concurrent::Pool& pool)
    : name_(std::move(name)), options_(options), pool_(pool) {
  ends_[0].channel_ = this;
  ends_[0].side_ = 0;
  ends_[1].channel_ = this;
  ends_[1].side_ = 1;
}

void Channel::decide_wire_format() {
  seal_.reset();
  const bool cross_enclave = placements_[0] != placements_[1] &&
                             placements_[0] != sgxsim::kUntrusted &&
                             placements_[1] != sgxsim::kUntrusted;
  if (cross_enclave && !options_.force_plain) {
    auto& mgr = sgxsim::EnclaveManager::instance();
    sgxsim::Enclave* a = mgr.find(placements_[0]);
    sgxsim::Enclave* b = mgr.find(placements_[1]);
    if (a != nullptr && b != nullptr) seal_ = HopSeal::link(*a, *b);
    if (!seal_.has_value()) {
      EA_WARN("core", "channel %s: attestation failed, staying plain",
              name_.c_str());
    }
  }
}

ChannelEnd* Channel::connect(sgxsim::EnclaveId placement, Actor* owner) {
  if (connected_ >= 2) return nullptr;
  int side = connected_++;
  placements_[side] = placement;
  owners_[side] = owner;
  if (connected_ == 2) {
    // Both placements known: decide the wire format once.
    decide_wire_format();
    EA_DEBUG("core", "channel %s connected (%u <-> %u) %s", name_.c_str(),
             placements_[0], placements_[1],
             encrypted() ? "encrypted" : "plain");
  }
  return &ends_[side];
}

std::size_t Channel::rebind_for_migration(const Actor& owner,
                                          sgxsim::EnclaveId new_placement) {
  bool owned = false;
  for (int side = 0; side < 2; ++side) {
    if (owners_[side] == &owner) {
      placements_[side] = new_placement;
      owned = true;
    }
  }
  if (!owned || connected_ < 2) return 0;

  // Both endpoint actors are parked (coordinator contract), so the drain
  // below races nothing. Pop everything through recv_at — it opens each
  // node in place under the current (old) key — before the format flips;
  // re-injection below re-seals the same nodes under the new format. Every
  // pop either yields a message or drops one failing authentication, so
  // the loop ends, and it never draws a node from the pool.
  std::vector<concurrent::NodeLease> in_flight[2];
  for (int recv_side = 0; recv_side < 2; ++recv_side) {
    const int from_dir = recv_side == 0 ? 1 : 0;
    while (!arrivals_[from_dir]->empty()) {
      concurrent::NodeLease lease = recv_at(recv_side);
      if (lease) in_flight[from_dir].push_back(std::move(lease));
    }
  }

  decide_wire_format();

  std::size_t carried = 0;
  for (int d = 0; d < 2; ++d) {
    for (auto& lease : in_flight[d]) {
      // dir_[0] carries side-0 sends; re-inject from the same sender so the
      // AAD direction byte stays truthful under the new key.
      if (send_node_from(/*side=*/d, std::move(lease))) {
        ++carried;
      } else {
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        EA_WARN("core", "channel %s: message did not survive rebind re-seal",
                name_.c_str());
      }
    }
  }
  EA_DEBUG("core", "channel %s rebound (%u <-> %u) %s, %zu in-flight carried",
           name_.c_str(), placements_[0], placements_[1],
           encrypted() ? "encrypted" : "plain", carried);
  return carried;
}

// --- sealing / opening ------------------------------------------------------

void Channel::seal_in_place(int side, concurrent::Node& node,
                            std::size_t len) {
  if (seal_.has_value()) {
    len += HopSeal::kOverhead;
    seal_->seal(side, std::span<std::uint8_t>(node.payload(), len));
  }
  node.size = static_cast<std::uint32_t>(len);
}

bool Channel::open_in_place(int side, concurrent::Node& node) {
  if (!seal_.has_value()) return true;
  std::uint8_t* p = node.payload();
  std::size_t plain_len = 0;
  if (!seal_->open(side, std::span<std::uint8_t>(p, node.size), plain_len)) {
    return false;
  }
  std::memmove(p, p + HopSeal::kHeader, plain_len);
  node.size = static_cast<std::uint32_t>(plain_len);
  return true;
}

// --- send / recv ------------------------------------------------------------

bool Channel::send_from(int side, std::span<const std::uint8_t> bytes) {
  concurrent::Node* node = pool_.get();
  if (node == nullptr) return false;  // pool exhausted; caller retries
  const bool sealed = seal_.has_value();
  if (bytes.size() + (sealed ? HopSeal::kOverhead : 0) > node->capacity) {
    pool_.put(node);
    return false;
  }
  if (!bytes.empty()) {
    std::memcpy(node->payload() + (sealed ? HopSeal::kHeader : 0),
                bytes.data(), bytes.size());
  }
  seal_in_place(side, *node, bytes.size());
  payload_copies_.fetch_add(1, std::memory_order_relaxed);
  dir_[side == 0 ? 0 : 1].push(node);
  return true;
}

bool Channel::send_node_from(int side, concurrent::NodeLease&& lease) {
  concurrent::Node* node = lease.get();
  if (node == nullptr) return false;
  if (!seal_.has_value()) {
    // Co-located (or explicitly plain) fast path: donate the node pointer.
    // The payload is not touched — EActors' "only pointers are passed
    // around" discipline applied to channel sends.
    moved_sends_.fetch_add(1, std::memory_order_relaxed);
    dir_[side == 0 ? 0 : 1].push(lease.release());
    return true;
  }
  // Cross-enclave: the node memory is untrusted, so the payload must still
  // be sealed. Stage it to the wire's plaintext offset (the one copy this
  // path pays) and seal in place; AEAD framing is identical to send().
  const std::size_t len = node->size;
  if (len + HopSeal::kOverhead > node->capacity) return false;  // lease frees
  std::uint8_t* p = node->payload();
  if (len != 0) std::memmove(p + HopSeal::kHeader, p, len);
  seal_in_place(side, *node, len);
  payload_copies_.fetch_add(1, std::memory_order_relaxed);
  dir_[side == 0 ? 0 : 1].push(lease.release());
  return true;
}

concurrent::NodeLease Channel::recv_at(int side) {
  // Side A receives what B sent (direction 1); side B what A sent.
  concurrent::Node* node = arrivals_[side == 0 ? 1 : 0]->pop();
  if (node == nullptr) return concurrent::NodeLease();
  concurrent::NodeLease lease(node);
  // Injected wire corruption: flip one ciphertext byte before opening, as a
  // tampering runtime would. Authentication must reject the node.
  if (EA_FAIL_TRIGGERED("channel.recv.corrupt") && node->size > 0) {
    node->payload()[node->size - 1] ^= 0x01;
  }
  if (!open_in_place(side, *node)) {
    auth_failures_.fetch_add(1, std::memory_order_relaxed);
    EA_WARN("core", "channel %s: dropping message failing authentication",
            name_.c_str());
    return concurrent::NodeLease();  // lease returns node to pool
  }
  return lease;
}

// --- ChannelEnd -------------------------------------------------------------

bool ChannelEnd::send(std::span<const std::uint8_t> bytes) {
  return channel_->send_from(side_, bytes);
}

bool ChannelEnd::send_node(concurrent::NodeLease&& lease) {
  return channel_->send_node_from(side_, std::move(lease));
}

bool ChannelEnd::owner_migrating() const noexcept {
  const Actor* owner = channel_->owners_[side_];
  return owner != nullptr && owner->lifecycle() == ActorState::kMigrating;
}

concurrent::NodeLease ChannelEnd::recv() {
  if (owner_migrating()) return concurrent::NodeLease();
  return channel_->recv_at(side_);
}

bool ChannelEnd::pending() const {
  return !channel_->arrivals_[side_ == 0 ? 1 : 0]->empty();
}

bool ChannelEnd::encrypted() const { return channel_->encrypted(); }

}  // namespace ea::core

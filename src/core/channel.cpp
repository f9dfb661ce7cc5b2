#include "core/channel.hpp"

#include <cstring>
#include <vector>

#include "core/actor.hpp"
#include "crypto/rng.hpp"
#include "sgxsim/attestation.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace ea::core {
namespace {

// --- hardware-AEAD performance model (see CipherModel::kHardwareModel) ----
//
// Frame: counter(8) || body (payload XOR keystream) || checksum(8).

std::uint64_t key_seed(const crypto::AeadKey& key) {
  return util::load_le64(key.data());
}

// Domain separation for batch frames in the hardware model: a different
// keystream/checksum seed, mirroring the extra AAD byte the real AEAD path
// uses. A runtime re-tagging a frame makes the checksum fail.
constexpr std::uint64_t kBatchSeedTweak = 0x9d5c0fb3a7e41d2bull;

void fast_transform(std::uint64_t seed, std::span<std::uint8_t> body) {
  crypto::FastRng rng(seed);
  std::size_t i = 0;
  while (i + 8 <= body.size()) {
    std::uint64_t ks = rng.next();
    std::uint64_t word = util::load_le64(body.data() + i);
    util::store_le64(body.data() + i, word ^ ks);
    i += 8;
  }
  if (i < body.size()) {
    std::uint64_t ks = rng.next();
    for (std::size_t j = 0; i + j < body.size(); ++j) {
      body[i + j] ^= static_cast<std::uint8_t>(ks >> (8 * j));
    }
  }
}

std::uint64_t fast_checksum(std::uint64_t seed,
                            std::span<const std::uint8_t> body) {
  std::uint64_t sum = seed * 0x9e3779b97f4a7c15ull;
  std::size_t i = 0;
  while (i + 8 <= body.size()) {
    sum += util::load_le64(body.data() + i) * 0xff51afd7ed558ccdull;
    i += 8;
  }
  for (; i < body.size(); ++i) sum += std::uint64_t{body[i]} << (i % 56);
  return sum;
}

}  // namespace

Channel::Channel(std::string name, ChannelOptions options,
                 concurrent::Pool& pool)
    : name_(std::move(name)), options_(options), pool_(pool) {
  ends_[0].channel_ = this;
  ends_[0].side_ = 0;
  ends_[1].channel_ = this;
  ends_[1].side_ = 1;
}

void Channel::decide_wire_format() {
  encrypted_ = false;
  key_.reset();
  const bool cross_enclave = placements_[0] != placements_[1] &&
                             placements_[0] != sgxsim::kUntrusted &&
                             placements_[1] != sgxsim::kUntrusted;
  if (cross_enclave && !options_.force_plain) {
    auto& mgr = sgxsim::EnclaveManager::instance();
    sgxsim::Enclave* a = mgr.find(placements_[0]);
    sgxsim::Enclave* b = mgr.find(placements_[1]);
    if (a != nullptr && b != nullptr) {
      key_ = sgxsim::establish_session_key(*a, *b);
      encrypted_ = key_.has_value();
    }
    if (!encrypted_) {
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
             encrypted_ ? "encrypted" : "plain");
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
  // below races nothing. Pop everything through recv_at — it decrypts under
  // the current (old) key and unpacks batch frames — before the format
  // flips; re-injection below re-seals under the new format.
  std::vector<concurrent::NodeLease> in_flight[2];
  for (int recv_side = 0; recv_side < 2; ++recv_side) {
    const int from_dir = recv_side == 0 ? 1 : 0;
    while (true) {
      const bool mbox_empty = dir_[from_dir].empty();
      const std::uint32_t batch_left = pending_batch_[recv_side].remaining;
      if (mbox_empty && batch_left == 0) break;
      concurrent::NodeLease lease = recv_at(recv_side);
      if (lease) {
        in_flight[from_dir].push_back(std::move(lease));
        continue;
      }
      // Empty lease while input remained: either a message was consumed
      // and dropped (auth failure) — progress — or a batch unpack parked on
      // pool exhaustion — no progress, so stop rather than spin. The frame
      // stays queued for the resumed actor; nothing is freed here.
      if (dir_[from_dir].empty() == mbox_empty &&
          pending_batch_[recv_side].remaining == batch_left) {
        frame_errors_.fetch_add(1, std::memory_order_relaxed);
        EA_WARN("core",
                "channel %s: rebind could not drain a batch frame "
                "(pool exhausted); frame left in place",
                name_.c_str());
        break;
      }
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
           encrypted_ ? "encrypted" : "plain", carried);
  return carried;
}

// --- sealing / opening ------------------------------------------------------

std::size_t Channel::plaintext_offset() const noexcept {
  if (!encrypted_) return 0;
  return options_.cipher == CipherModel::kHardwareModel
             ? 8  // counter header
             : crypto::kAeadNonceSize;
}

std::size_t Channel::cipher_overhead() const noexcept {
  if (!encrypted_) return 0;
  return options_.cipher == CipherModel::kHardwareModel
             ? 16  // counter(8) + checksum(8)
             : crypto::kAeadOverhead;
}

void Channel::seal_in_place(int side, concurrent::Node& node, std::size_t len,
                            bool batch) {
  std::uint8_t* p = node.payload();
  if (!encrypted_) {
    node.size = static_cast<std::uint32_t>(len);
    return;
  }
  std::uint64_t ctr =
      send_counter_[side].fetch_add(1, std::memory_order_relaxed);
  if (options_.cipher == CipherModel::kHardwareModel) {
    std::uint64_t seed = key_seed(*key_) ^ (ctr * 2 + side);
    if (batch) seed ^= kBatchSeedTweak;
    util::store_le64(p, ctr);
    std::uint64_t sum =
        fast_checksum(seed, std::span<const std::uint8_t>(p + 8, len));
    fast_transform(seed, std::span<std::uint8_t>(p + 8, len));
    util::store_le64(p + 8 + len, sum);
    node.size = static_cast<std::uint32_t>(len + 16);
    return;
  }
  // The AAD pins direction so a malicious runtime cannot reflect messages
  // back at their sender; the second byte separates batch frames from
  // single messages so re-tagging a node fails to open.
  std::uint8_t aad[2] = {static_cast<std::uint8_t>(side), 1};
  std::span<const std::uint8_t> aad_span(aad, batch ? 2u : 1u);
  const std::size_t total = len + crypto::kAeadOverhead;
  crypto::seal_framed_into(*key_, ctr, aad_span,
                           std::span<std::uint8_t>(p, total));
  node.size = static_cast<std::uint32_t>(total);
}

bool Channel::seal_into(int side, concurrent::Node& node,
                        std::span<const std::uint8_t> bytes, bool batch) {
  if (bytes.size() + cipher_overhead() > node.capacity) return false;
  if (!bytes.empty()) {
    std::memcpy(node.payload() + plaintext_offset(), bytes.data(),
                bytes.size());
  }
  seal_in_place(side, node, bytes.size(), batch);
  return true;
}

bool Channel::open_in_place(int side, concurrent::Node& node, bool batch) {
  if (!encrypted_) return true;
  const int sender = 1 - side;
  std::uint8_t* p = node.payload();
  if (options_.cipher == CipherModel::kHardwareModel) {
    if (node.size < 16) return false;
    std::size_t body_len = node.size - 16;
    std::uint64_t ctr = util::load_le64(p);
    std::uint64_t seed = key_seed(*key_) ^ (ctr * 2 + sender);
    if (batch) seed ^= kBatchSeedTweak;
    fast_transform(seed, std::span<std::uint8_t>(p + 8, body_len));
    std::uint64_t expected = util::load_le64(p + 8 + body_len);
    std::uint64_t actual =
        fast_checksum(seed, std::span<const std::uint8_t>(p + 8, body_len));
    if (expected != actual) return false;
    std::memmove(p, p + 8, body_len);
    node.size = static_cast<std::uint32_t>(body_len);
    return true;
  }
  std::uint8_t aad[2] = {static_cast<std::uint8_t>(sender), 1};
  std::span<const std::uint8_t> aad_span(aad, batch ? 2u : 1u);
  std::size_t plain_len = 0;
  if (!crypto::open_framed_in_place(
          *key_, aad_span, std::span<std::uint8_t>(p, node.size),
          plain_len)) {
    return false;
  }
  std::memmove(p, p + crypto::kAeadNonceSize, plain_len);
  node.size = static_cast<std::uint32_t>(plain_len);
  return true;
}

// --- single-message path ----------------------------------------------------

bool Channel::send_from(int side, std::span<const std::uint8_t> bytes) {
  concurrent::Node* node = pool_.get();
  if (node == nullptr) return false;  // pool exhausted; caller retries
  if (!seal_into(side, *node, bytes, /*batch=*/false)) {
    pool_.put(node);
    return false;
  }
  payload_copies_.fetch_add(1, std::memory_order_relaxed);
  dir_[side == 0 ? 0 : 1].push(node);
  return true;
}

bool Channel::send_node_from(int side, concurrent::NodeLease&& lease) {
  concurrent::Node* node = lease.get();
  if (node == nullptr) return false;
  // The frame tag is reserved wire metadata; a donated node must never
  // impersonate a batch frame.
  if (node->tag == kBatchFrameTag) node->tag = 0;
  if (!encrypted_) {
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
  if (len + cipher_overhead() > node->capacity) return false;  // lease frees
  std::uint8_t* p = node->payload();
  const std::size_t off = plaintext_offset();
  if (off != 0 && len != 0) std::memmove(p + off, p, len);
  seal_in_place(side, *node, len, /*batch=*/false);
  payload_copies_.fetch_add(1, std::memory_order_relaxed);
  dir_[side == 0 ? 0 : 1].push(lease.release());
  return true;
}

concurrent::NodeLease Channel::recv_at(int side) {
  // A batch frame in flight hands out its next message first (FIFO: the
  // frame was popped before anything still queued behind it).
  if (pending_batch_[side].remaining > 0) return next_from_batch(side);
  // Side A receives from dir_[1] (B->A); side B from dir_[0].
  concurrent::Node* node = dir_[side == 0 ? 1 : 0].pop();
  if (node == nullptr) return concurrent::NodeLease();
  concurrent::NodeLease lease(node);
  const bool batch = node->tag == kBatchFrameTag;
  // Injected wire corruption: flip one ciphertext byte before opening, as a
  // tampering runtime would. Authentication must reject the node.
  if (EA_FAIL_TRIGGERED("channel.recv.corrupt") && node->size > 0) {
    node->payload()[node->size - 1] ^= 0x01;
  }
  if (!open_in_place(side, *node, batch)) {
    auth_failures_.fetch_add(1, std::memory_order_relaxed);
    EA_WARN("core", "channel %s: dropping message failing authentication",
            name_.c_str());
    return concurrent::NodeLease();  // lease returns node to pool
  }
  if (!batch) return lease;
  // Injected truncation *after* authentication: models a parser bug or a
  // sender whose frame claims more sub-messages than it carries. The batch
  // walk must count a frame error and drop the remainder, never over-read.
  if (EA_FAIL_TRIGGERED("channel.batch.truncate") && node->size > 6) {
    node->size = 6;  // count field survives; the first length field cannot
  }
  if (node->size < 4) {
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    return concurrent::NodeLease();
  }
  std::uint32_t count = util::load_le32(node->payload());
  if (count == 0) return concurrent::NodeLease();  // empty frame: drop
  pending_batch_[side] = PendingBatch{std::move(lease), count, 4};
  return next_from_batch(side);
}

concurrent::NodeLease Channel::next_from_batch(int side) {
  PendingBatch& pb = pending_batch_[side];
  concurrent::Node* frame = pb.frame.get();
  const std::uint8_t* p = frame->payload();
  if (pb.offset + 4 > frame->size) {
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    EA_WARN("core", "channel %s: malformed batch frame, dropping remainder",
            name_.c_str());
    pb = PendingBatch{};
    return concurrent::NodeLease();
  }
  std::uint32_t len = util::load_le32(p + pb.offset);
  if (pb.offset + 4 + len > frame->size) {
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    EA_WARN("core", "channel %s: malformed batch frame, dropping remainder",
            name_.c_str());
    pb = PendingBatch{};
    return concurrent::NodeLease();
  }
  if (pb.remaining == 1) {
    // Last sub-message: deliver it in the frame node itself (memmove to the
    // front) instead of drawing a fresh node. A frame therefore needs at
    // most count-1 free nodes to unpack, and a frame of one is pool-neutral
    // exactly like a single message.
    std::uint8_t* wp = frame->payload();
    std::memmove(wp, wp + pb.offset + 4, len);
    frame->size = len;
    frame->tag = 0;
    concurrent::NodeLease out_lease = std::move(pb.frame);
    pb = PendingBatch{};
    return out_lease;
  }
  concurrent::Node* out = pool_.get();
  if (out == nullptr) {
    // Pool exhausted: keep the frame parked without advancing — nothing is
    // lost, the caller simply retries on its next activation.
    return concurrent::NodeLease();
  }
  concurrent::NodeLease out_lease(out);
  if (len > out->capacity) {
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    pb = PendingBatch{};
    return concurrent::NodeLease();
  }
  out->fill(std::span<const std::uint8_t>(p + pb.offset + 4, len));
  pb.offset += 4 + len;
  if (--pb.remaining == 0) pb = PendingBatch{};  // frame node back to pool
  return out_lease;
}

// --- batch path -------------------------------------------------------------

std::size_t Channel::send_batch_from(
    int side, std::span<const std::span<const std::uint8_t>> msgs) {
  if (msgs.empty()) return 0;
  concurrent::Node* node = pool_.get();
  if (node == nullptr) return 0;
  // Budget for the inner frame: node capacity minus the cipher expansion.
  const std::size_t overhead = cipher_overhead();
  if (node->capacity <= overhead + 4) {
    pool_.put(node);
    return 0;
  }
  const std::size_t budget = node->capacity - overhead;
  std::size_t used = 4;  // u32 message count
  std::size_t packed = 0;
  for (const auto& msg : msgs) {
    std::size_t need = 4 + msg.size();
    if (used + need > budget) break;
    used += need;
    ++packed;
  }
  if (packed == 0) {
    pool_.put(node);
    return 0;
  }
  // Inner frame: count(4) || (len(4) || bytes)*. Assembled directly at the
  // node's plaintext offset and sealed in place — the whole batch path
  // performs exactly one copy per message and no allocation.
  std::uint8_t* inner = node->payload() + plaintext_offset();
  util::store_le32(inner, static_cast<std::uint32_t>(packed));
  std::size_t off = 4;
  for (std::size_t i = 0; i < packed; ++i) {
    util::store_le32(inner + off, static_cast<std::uint32_t>(msgs[i].size()));
    off += 4;
    if (!msgs[i].empty()) {
      std::memcpy(inner + off, msgs[i].data(), msgs[i].size());
    }
    off += msgs[i].size();
  }
  seal_in_place(side, *node, used, /*batch=*/true);
  node->tag = kBatchFrameTag;
  payload_copies_.fetch_add(packed, std::memory_order_relaxed);
  dir_[side == 0 ? 0 : 1].push(node);
  return packed;
}

std::size_t Channel::recv_burst_at(int side, concurrent::NodeLease* out,
                                   std::size_t max) {
  std::size_t got = 0;
  while (got < max) {
    concurrent::NodeLease lease = recv_at(side);
    if (!lease) break;
    out[got++] = std::move(lease);
  }
  return got;
}

// --- ChannelEnd -------------------------------------------------------------

bool ChannelEnd::send(std::span<const std::uint8_t> bytes) {
  return channel_->send_from(side_, bytes);
}

std::size_t ChannelEnd::send_batch(
    std::span<const std::span<const std::uint8_t>> msgs) {
  return channel_->send_batch_from(side_, msgs);
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

std::size_t ChannelEnd::recv_burst(concurrent::NodeLease* out,
                                   std::size_t max) {
  if (owner_migrating()) return 0;
  return channel_->recv_burst_at(side_, out, max);
}

bool ChannelEnd::pending() const {
  return channel_->pending_batch_[side_].remaining > 0 ||
         !channel_->dir_[side_ == 0 ? 1 : 0].empty();
}

bool ChannelEnd::encrypted() const { return channel_->encrypted_; }

}  // namespace ea::core

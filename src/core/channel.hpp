// Uniform communication primitives (paper §3.3).
//
// A Channel is a bi-directional link between two eactors built from two
// mboxes. Channels hide the location of the endpoints: if both eactors sit
// in the same enclave (or both untrusted) messages travel in plaintext; if
// they sit in *different* enclaves the channel transparently seals every
// message — the underlying node memory is untrusted, so the runtime must
// not be able to read, forge, replay or reorder messages. Each node
// carries one frame, sealed and opened in place by the rule every hop
// between enclaves follows (core/hop_seal.hpp): a key of the channel's own,
// derived on connect and again on every migration rebind, per-direction
// counters, and a receiver that drops reflected, moved, duplicated and
// overtaken frames (counted in auth_failures()). A channel can also be
// explicitly configured plain (§3.3: "except if the channel is configured
// as non-encrypted").
//
// The two-phase connect mirrors the paper: the first endpoint to connect is
// the *initiator*, the second the *client*; the encryption decision is made
// once both placements are known.
//
// Each direction's sender pushes into that direction's mbox, and its
// receiver pops from the direction's arrivals mbox: the same mbox, unless
// a transport carries the channel (net/channel_link.hpp moves sealed
// frames from departures() over TCP into arrivals of its own). The ends'
// code does not change with the carrier.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/hop_seal.hpp"
#include "sgxsim/enclave.hpp"

namespace ea::core {

class Actor;
class Runtime;
class Channel;

struct ChannelOptions {
  // Forces plaintext even across enclaves (the application may do its own
  // end-to-end encryption, as the XMPP service does).
  bool force_plain = false;
};

// One side of a channel. send() never blocks: it fails (returns false) when
// the node pool is exhausted, and the actor retries on its next activation.
class ChannelEnd {
 public:
  // Copies `bytes` into a fresh node (encrypting if the channel crosses an
  // enclave boundary) and enqueues it towards the peer.
  bool send(std::span<const std::uint8_t> bytes);
  bool send(std::string_view s) {
    return send(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
  }

  // Zero-copy send: donates an owned node (payload at offset 0, node.size
  // set) to the peer. On a plain channel — in particular between co-located
  // actors — the node pointer is pushed directly into the peer's mailbox:
  // no payload bytes are copied, no pool allocation happens, and the
  // receiver's recv() lease is the very node the sender filled. On an
  // encrypted channel the payload is staged to the wire offset and sealed
  // in place (one copy — counted in Channel::payload_copies()). Returns
  // false only when a sealed payload cannot fit the node's capacity
  // (node.size + cipher overhead > capacity — a static property of the
  // pool's payload size); the node is then released back to its pool.
  bool send_node(concurrent::NodeLease&& lease);

  // Dequeues the next message; empty lease when the mailbox is empty or a
  // cross-enclave message fails authentication or the counter check (it is
  // then dropped).
  // Every node carries one message, opened in place: the payload is
  // already decrypted and no second node is drawn. Also empty once the
  // end's owner is parked at the migration barrier (kMigrating): a body
  // that drains until empty then ends its quantum instead of holding the
  // barrier open while its peer keeps the queue full (DESIGN.md §17); what
  // stays queued is carried over by rebind_for_migration().
  concurrent::NodeLease recv();

  // True if a recv() would find a message.
  bool pending() const;

  // Whether this channel transparently encrypts.
  bool encrypted() const;

  Channel& channel() noexcept { return *channel_; }

 private:
  friend class Channel;
  bool owner_migrating() const noexcept;
  Channel* channel_ = nullptr;
  int side_ = 0;  // 0 = initiator (A), 1 = client (B)
};

class Channel {
 public:
  Channel(std::string name, ChannelOptions options, concurrent::Pool& pool);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  const std::string& name() const noexcept { return name_; }

  // Binds the next free endpoint for an actor placed in `placement`.
  // First call returns the initiator end, second the client end; further
  // calls return nullptr (channels are point-to-point; mboxes themselves
  // support MPMC and are used directly where fan-in is needed). `owner`
  // (may be null for test harnesses that connect endpoints directly)
  // records which actor holds the end, so migration can find and rebind
  // the channels of a moving actor.
  ChannelEnd* connect(sgxsim::EnclaveId placement, Actor* owner = nullptr);

  // The actor bound to `side` (nullptr for harness-connected ends).
  Actor* owner(int side) const noexcept { return owners_[side]; }

  // Rewrites the placement of every end owned by `owner` to
  // `new_placement` and re-derives the wire format (plain vs encrypted,
  // session key) for the new enclave pair. Messages already queued were
  // sealed under the OLD format, so both directions are drained (each
  // node opened in place, so the drain needs no free node) and the same
  // nodes are re-injected under the new format, preserving FIFO order.
  // Caller contract (MigrationCoordinator): BOTH endpoint actors are
  // parked, so no concurrent send/recv runs. Returns the number of
  // in-flight messages carried across; a message too large to re-seal
  // under the new format is dropped and counted in frame_errors().
  std::size_t rebind_for_migration(const Actor& owner,
                                   sgxsim::EnclaveId new_placement);

  bool encrypted() const noexcept { return seal_.has_value(); }

  // Direction `dir`'s departures (dir 0 carries side 0's sends), and where
  // its receiver pops from instead of them. A carrier calls carry() before
  // start(); it then moves every departure into `arrivals` itself.
  concurrent::Mbox& departures(int dir) noexcept { return dir_[dir]; }
  void carry(int dir, concurrent::Mbox& arrivals) noexcept {
    arrivals_[dir] = &arrivals;
  }
  // A carried channel cannot be rebound: frames sealed under its key wait
  // in the carrier and on the wire, out of a rekey's reach. The
  // MigrationCoordinator refuses to move an actor that holds one.
  bool carried() const noexcept {
    return arrivals_[0] != &dir_[0] || arrivals_[1] != &dir_[1];
  }

  // Number of messages dropped due to failed authentication or a counter
  // that was reflected, replayed or out of order.
  std::uint64_t auth_failures() const noexcept {
    return auth_failures_.load(std::memory_order_relaxed);
  }

  // Messages dropped by rebind_for_migration() because they no longer fit
  // their node once sealed under the new wire format.
  std::uint64_t frame_errors() const noexcept {
    return frame_errors_.load(std::memory_order_relaxed);
  }

  // Send-side payload copies performed by this channel: one per send()
  // (the memcpy into the fresh node) and one per send_node() on an
  // encrypted channel (the stage-to-wire-offset move).
  // Intra-enclave send_node() performs none — the zero-copy tests and the
  // bench assert this counter stays at zero on that path.
  std::uint64_t payload_copies() const noexcept {
    return payload_copies_.load(std::memory_order_relaxed);
  }

  // Messages that travelled by node donation without any payload copy.
  std::uint64_t moved_sends() const noexcept {
    return moved_sends_.load(std::memory_order_relaxed);
  }

 private:
  friend class ChannelEnd;

  bool send_from(int side, std::span<const std::uint8_t> bytes);
  bool send_node_from(int side, concurrent::NodeLease&& lease);
  concurrent::NodeLease recv_at(int side);
  // Seals the `len` plaintext bytes sitting in `node` at HopSeal::kHeader
  // (at 0 on a plain channel), in place, and sets node.size.
  void seal_in_place(int side, concurrent::Node& node, std::size_t len);
  bool open_in_place(int side, concurrent::Node& node);

  std::string name_;
  ChannelOptions options_;
  concurrent::Pool& pool_;

  // Re-evaluates the encryption decision for the current placements
  // (connect() runs it once when both ends are known; rebind re-runs it).
  void decide_wire_format();

  ChannelEnd ends_[2];
  sgxsim::EnclaveId placements_[2] = {sgxsim::kUntrusted, sgxsim::kUntrusted};
  Actor* owners_[2] = {nullptr, nullptr};
  int connected_ = 0;

  concurrent::Mbox dir_[2];  // dir_[0]: A->B, dir_[1]: B->A
  concurrent::Mbox* arrivals_[2] = {&dir_[0], &dir_[1]};

  // Set while the channel seals: the ends cross an enclave boundary.
  std::optional<HopSeal> seal_;
  std::atomic<std::uint64_t> auth_failures_{0};
  std::atomic<std::uint64_t> frame_errors_{0};
  std::atomic<std::uint64_t> payload_copies_{0};
  std::atomic<std::uint64_t> moved_sends_{0};
};

}  // namespace ea::core

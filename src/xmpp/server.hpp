// EActors XMPP instant-messaging service (paper §5.1, Fig. 7).
//
// Architecture:
//   * an enclaved CONNECTOR eactor accepts incoming connections (via the
//     ACCEPTER system actor feeding the shared Online list) and assigns
//     them round-robin to XMPP instances by subscribing the socket to that
//     instance's READER;
//   * N enclaved XMPP eactors implement the protocol logic (auth, O2O
//     routing, group-chat re-encryption). Each instance has its own
//     untrusted READER and WRITER eactors (Fig. 7), so the application
//     layer and the networking layer scale independently;
//   * shared (untrusted-memory) state: the user Directory and RoomTable —
//     equivalents of the paper's Online list — guarded by HLE locks.
//
// Deployment knobs reproduce the paper's experiments: instance count
// (EA/3 = 1 instance, EA/6 = 2, EA/48 = 16), trusted vs untrusted
// execution (Fig. 15/17) and the number of distinct enclaves the instances
// are packed into (Fig. 16).
#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "concurrent/hle_lock.hpp"
#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/actor.hpp"
#include "core/runtime.hpp"
#include "net/actors.hpp"
#include "xmpp/stanza.hpp"

namespace ea::xmpp {

// Shared routing state in untrusted memory. Values (socket ids, instance
// indexes) are not confidential; message *contents* are protected by the
// service-level encryption in e2e.hpp.
struct Route {
  net::SocketId socket = -1;
  int instance = -1;
};

// The routing tables are sharded by client-id (jid / room name) hash: a
// single lock + map per table serialises every connect, route lookup and
// room join across all instances — exactly the contention
// xmpp::BaselineServer exists to demonstrate. 16 shards (power of two so
// the hash folds with a mask) each carry their own HleSpinLock; all shard
// locks of one table share that table's LockRank, and no operation ever
// holds two shards of the same table at once (leave_all/size walk shards
// strictly sequentially, release before acquire — the kPosBucket
// precedent), so the same-rank-nesting-forbidden rule stays intact and
// the lock graph stays acyclic.
inline constexpr std::size_t kXmppShards = 16;

inline std::size_t xmpp_shard_of(const std::string& key) noexcept {
  return std::hash<std::string>{}(key) & (kXmppShards - 1);
}

class Directory {
 public:
  void put(const std::string& jid, Route route);
  std::optional<Route> get(const std::string& jid) const;
  // Removes `jid`'s route only while it still names `socket`; false when
  // there is none or a later login of the jid has replaced it.
  bool remove(const std::string& jid, net::SocketId socket);
  std::size_t size() const;

 private:
  struct Shard {
    mutable concurrent::HleSpinLock lock{
        concurrent::LockRank::kXmppDirectory};
    std::map<std::string, Route> users EA_GUARDED_BY(lock);
  };
  Shard& shard(const std::string& jid) const {
    return shards_[xmpp_shard_of(jid)];
  }
  mutable std::array<Shard, kXmppShards> shards_;
};

class RoomTable {
 public:
  // Adds a member (idempotent).
  void join(const std::string& room, const std::string& jid);
  void leave_all(const std::string& jid);
  std::vector<std::string> members(const std::string& room) const;

 private:
  struct Shard {
    mutable concurrent::HleSpinLock lock{concurrent::LockRank::kXmppRooms};
    std::map<std::string, std::vector<std::string>> rooms
        EA_GUARDED_BY(lock);
  };
  Shard& shard(const std::string& room) const {
    return shards_[xmpp_shard_of(room)];
  }
  mutable std::array<Shard, kXmppShards> shards_;
};

struct XmppShared {
  Directory directory;
  RoomTable rooms;
  concurrent::Mbox online;  // accepted socket ids from the ACCEPTER
  std::vector<concurrent::Mbox*> inboxes;        // per-instance data mboxes
  std::vector<concurrent::Mbox*> reader_reqs;    // per-instance READER reqs
  std::vector<concurrent::Mbox*> writer_inputs;  // per-instance WRITER input
  concurrent::Mbox* closer_input = nullptr;
  concurrent::Pool* pool = nullptr;
  int instances = 0;

  int room_owner(const std::string& room) const;
};

// Enclaved connection manager: distributes accepted sockets to instances.
class ConnectorActor : public core::Actor {
 public:
  ConnectorActor(std::string name, std::shared_ptr<XmppShared> shared)
      : core::Actor(std::move(name)), shared_(std::move(shared)) {}

  bool body() override;

 private:
  std::shared_ptr<XmppShared> shared_;
  int next_instance_ = 0;
};

// Enclaved protocol instance.
class XmppActor : public core::Actor {
 public:
  XmppActor(std::string name, int index, std::shared_ptr<XmppShared> shared)
      : core::Actor(std::move(name)),
        index_(index),
        shared_(std::move(shared)) {}

  // Connects the room channel to every peer instance.
  void construct(core::Runtime& rt) override;

  bool body() override;

  // Data mbox this instance consumes (READER pushes here).
  concurrent::Mbox& inbox() noexcept { return inbox_; }

  std::uint64_t messages_routed() const noexcept { return routed_; }

  // Live migration (DESIGN.md §17). The per-client list — jid, auth flag
  // and the incremental parser state of every connection — serialises into
  // the sealed bundle; inbox_ is the tombstone mbox (READER keeps queueing
  // into it while the actor is parked, and the drain after resume loses
  // nothing). The room channels are rebound and rekeyed by the
  // coordinator like any channel the instance owns.
  bool migratable() const override { return true; }
  util::Bytes export_state() override;
  bool import_state(std::span<const std::uint8_t> state) override;

 private:
  struct ClientState {
    StanzaStream stream;
    std::string jid;
    bool authed = false;
  };

  // Feeds a socket's bytes to its client; false when they closed or broke
  // the stream.
  bool handle_data(net::SocketId socket, std::string_view bytes);
  void handle_stanza(net::SocketId socket, ClientState& client,
                     const XmlNode& stanza);
  void forward_groupchat(int owner, const XmlNode& stanza,
                         const std::string& from_jid);
  void handle_transfer(std::string_view wire);
  void process_groupchat(const std::string& from, const std::string& room,
                         const std::string& body);
  // Tears the client down and makes `note` (the EOF note, or the data node
  // that ended the stream) the socket's close request.
  void drop_client(net::SocketId socket, concurrent::Node* note);
  // Sends raw bytes to a socket owned by instance `instance`.
  bool send_raw(int instance, net::SocketId socket, std::string_view bytes);

  int index_;
  std::shared_ptr<XmppShared> shared_;
  concurrent::Mbox inbox_;
  // Room transfers: the channel "xmpp.room.<lo>.<hi>" to each peer
  // instance, indexed by peer (nullptr at this instance's own index).
  // A channel between instances in *different* enclaves seals every
  // transfer, because node memory is untrusted — the effect behind the
  // paper's Fig. 16: packing all instances into one enclave lets them
  // share data without encryption.
  std::vector<core::ChannelEnd*> rooms_;
  std::map<net::SocketId, ClientState> clients_;  // the PCL
  std::uint64_t routed_ = 0;
};

struct XmppServiceConfig {
  int instances = 1;
  bool trusted = true;       // place XMPP eactors (and connector) in enclaves
  int enclaves = -1;         // enclaves to spread instances over, each
                             // holding a contiguous block; -1 = one each
  std::uint16_t port = 0;    // 0 = pick a free port
};

struct XmppService {
  std::uint16_t port = 0;
  std::shared_ptr<XmppShared> shared;
  ConnectorActor* connector = nullptr;
  std::vector<XmppActor*> instances;
};

// Installs the full service into `rt` (networking included). Must be called
// before rt.start(); the listening socket is bound immediately, so `port`
// is valid on return.
XmppService install_xmpp_service(core::Runtime& rt,
                                 const XmppServiceConfig& config);

}  // namespace ea::xmpp

// A core::Channel carried over loopback TCP (DESIGN.md §12).
//
// A channel's ends push sealed frames into its departures and pop from its
// arrivals (core/channel.hpp). A ChannelLink, one per carried channel,
// moves them between the two over one TCP connection, so an eactor's code
// is the same whether its peer is co-located or behind a socket (paper
// §3.3):
//
//   side 0 ─ departures(0) ─▶ link ─▶ WRITER ─ dialled ══ accepted ─ READER ─▶ link ─▶ arrivals(0) ─▶ side 1
//   side 1 ─ departures(1) ─▶ link ─▶ WRITER ─ accepted ══ dialled ─ READER ─▶ link ─▶ arrivals(1) ─▶ side 0
//
// Each socket carries one direction out and the other in, so a link never
// needs to know which side sends: in the secure-sum ring's last hop party
// 0 connected first, so it is side 0 and receives.
//
// The link owns both sockets of the connection: the dialled one, which
// the RECONNECTOR opens and re-opens (net/reconnector.hpp), and the one
// the ACCEPTER delivers from the link's listener; a newer accepted socket
// supersedes the older. The link subscribes each new socket with the
// READER when it learns of it, so no byte of a socket reaches the link
// before the socket does. Whoever sees an EOF closes its own fd: the link
// closes a dead accepted socket and reports a dead dialled one to the
// reconnector, which closes it and redials. Closing either socket ends
// the other with an EOF, so one break renews the whole connection.
//
// Wire frame: [u32 len][sealed frame]. The link moves sealed bytes and
// holds no key. It writes each departure in its own node, keeping a copy
// of the last. A READER chunk that holds exactly one frame becomes the
// arrival itself; other frames it rebuilds from the chunks in a node of
// its own. A length of 0 or above the node's capacity — or no node to
// rebuild it in — closes the inbound socket and delivers nothing.
//
// Recovery: frames written to a socket that dies may be lost. On every new
// socket the link writes the last frame it wrote for that direction again,
// then the direction's unwritten ones. The receiver's replay guard
// (core/hop_seal.hpp) drops the copy when the first had arrived, counted
// in the channel's auth_failures(). A protocol that keeps at most one
// frame in flight per direction, as the secure-sum ring does with its
// token, loses none.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/actor.hpp"
#include "core/channel.hpp"
#include "net/actors.hpp"
#include "net/reconnector.hpp"
#include "util/bytes.hpp"

namespace ea::net {

class ChannelLink : public core::Actor {
 public:
  ChannelLink(std::string name, core::Channel& channel, NetSubsystem net,
              concurrent::Pool& pool);
  ~ChannelLink() override { on_quarantine(); }

  // Wiring done by carry_channels() before start(): the ACCEPTER reports
  // accepted sockets to accepts(), the reconnector reports the dialled
  // one to status(), and the link reports a dead dialled socket as
  // `conn_id` on `reconnector_control`. The link subscribes both sockets
  // with the READER itself.
  concurrent::Mbox& accepts() noexcept { return accepts_; }
  concurrent::Mbox& status() noexcept { return status_; }
  void set_connection(std::uint64_t conn_id,
                      concurrent::Mbox* reconnector_control) {
    conn_id_ = conn_id;
    recon_control_ = reconnector_control;
  }

  // For hand-driven tests: the connection's sockets, -1 while down (0:
  // dialled, 1: accepted), and the frames waiting for direction `dir`'s
  // receiver.
  SocketId socket(int w) const noexcept { return wires_[w].socket; }
  const concurrent::Mbox& arrivals(int dir) const noexcept {
    return arrivals_[dir];
  }

  bool body() override;
  // Returns every node the link holds to its pool.
  void on_quarantine() override;
  bool has_pending_work() const override;

 private:
  // One socket of the connection. Wire w writes direction w's departures
  // and reads direction 1 - w's frames: wire 0 is the dialled socket,
  // wire 1 the accepted one.
  struct Wire {
    SocketId socket = -1;
    concurrent::Mbox chunks;            // READER: the socket's bytes
    util::Bytes last;                   // copy of the last departure taken
    bool written = false;               // `last` went out on `socket`
    std::uint8_t len_bytes[4] = {};     // length prefix read so far
    std::size_t len_got = 0;
    concurrent::Node* frame = nullptr;  // frame being rebuilt
    std::uint32_t frame_len = 0;
  };

  void attach(int w, SocketId socket, concurrent::Node* note);
  bool feed(int w, concurrent::Node* chunk);
  void drop(int w, concurrent::Node* note);
  void write(Wire& wire, concurrent::Node* node);
  bool send(int w);
  void clear_frame(Wire& wire) noexcept;

  core::Channel& channel_;
  NetSubsystem net_;
  concurrent::Pool& pool_;
  concurrent::Mbox* recon_control_ = nullptr;
  std::uint64_t conn_id_ = 0;

  concurrent::Mbox accepts_;      // ACCEPTER: accepted sockets
  concurrent::Mbox status_;       // RECONNECTOR: ConnStatus notes
  concurrent::Mbox arrivals_[2];  // the channel's receivers pop these
  Wire wires_[2];
};

// Carries each of `channels` over a loopback TCP connection of its own: a
// listener registered with the ACCEPTER, a reconnector-owned connection
// dialling it, and a ChannelLink "net.link.<channel>". The links join the
// net actors' worker group between the READER and the WRITER, so READER →
// link → WRITER runs on one worker within one round. Call after
// install_networking() and install_reconnector(), before start().
void carry_channels(core::Runtime& rt,
                    const std::vector<core::Channel*>& channels,
                    const NetSubsystem& net, ReconnectorActor& reconnector);

}  // namespace ea::net

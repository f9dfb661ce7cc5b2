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
// The link owns both sockets of the connection: the dialled one, which it
// opens itself through the OPENER, and the one the ACCEPTER delivers from
// the link's listener; a newer accepted socket supersedes the older. The
// link subscribes each new socket with the READER when it learns of it
// (the OpenReply or the ACCEPTER's note names it), so no byte of a socket
// reaches the link before the socket does. On an EOF or a frame it cannot
// rebuild, the link closes that socket; closing either socket ends the
// other with an EOF, so one break renews the whole connection.
//
// Dialling: one open in flight at a time, answered by the OpenReply that
// carries its cookie. An open unanswered after 200 ms is written off and
// the socket of its late reply closed; a refused open or a dead dialled
// socket is redialled after a capped exponential backoff (500 µs doubling
// to 50 ms, ±20%). A restart keeps the open in flight: an injected fault
// strikes before body() runs, so its reply still comes. Only
// on_quarantine(), which drops the queued replies, writes it off. The
// link hands the channel a new socket, never a new nonce space: the
// channel keeps its counters across reconnects (core/hop_seal.hpp).
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

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/actor.hpp"
#include "core/backoff.hpp"
#include "core/channel.hpp"
#include "net/actors.hpp"
#include "util/bytes.hpp"

namespace ea::net {

class ChannelLink : public core::Actor {
 public:
  // `port`: the link's own listener on 127.0.0.1, which it dials.
  ChannelLink(std::string name, core::Channel& channel, NetSubsystem net,
              concurrent::Pool& pool, std::uint16_t port);
  ~ChannelLink() override { on_quarantine(); }

  // The ACCEPTER reports the listener's accepted sockets here
  // (carry_channels() subscribes it before start()).
  concurrent::Mbox& accepts() noexcept { return accepts_; }

  // For hand-driven tests: the connection's sockets, -1 while down (0:
  // dialled, 1: accepted), and the frames waiting for direction `dir`'s
  // receiver.
  SocketId socket(int w) const noexcept { return wires_[w].socket; }
  const concurrent::Mbox& arrivals(int dir) const noexcept {
    return arrivals_[dir];
  }

  bool body() override;
  // Returns every node the link holds to its pool, closes the sockets
  // that queued notes and replies name, and writes off the open in
  // flight, whose reply it has just dropped.
  void on_quarantine() override;
  bool has_pending_work() const override;

 private:
  using Clock = std::chrono::steady_clock;

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

  void back_off();
  bool dial();
  void answer(concurrent::Node* node);
  void attach(int w, SocketId socket, concurrent::Node* note);
  bool feed(int w, concurrent::Node* chunk);
  void drop(int w, concurrent::Node* note);
  void write(Wire& wire, concurrent::Node* node);
  bool send(int w);
  void clear_frame(Wire& wire) noexcept;

  core::Channel& channel_;
  NetSubsystem net_;
  concurrent::Pool& pool_;
  std::uint16_t port_;

  // The dialled socket's opens: while wire 0 is down, either one is in
  // flight (`opening_`, cookie `dials_`, until `deadline_`) or the next
  // waits for `retry_at_`.
  core::BackoffSchedule backoff_;
  bool opening_ = false;
  std::uint64_t dials_ = 0;
  Clock::time_point deadline_{};
  Clock::time_point retry_at_{};

  concurrent::Mbox accepts_;      // ACCEPTER: accepted sockets
  concurrent::Mbox replies_;      // OPENER: replies to the link's opens
  concurrent::Mbox arrivals_[2];  // the channel's receivers pop these
  Wire wires_[2];
};

// Carries each of `channels` over a loopback TCP connection of its own: a
// listener registered with the ACCEPTER, and a ChannelLink
// "net.link.<channel>" that dials it. The links join the net actors'
// worker group between the READER and the WRITER, so READER → link →
// WRITER runs on one worker within one round. Call after
// install_networking(), before start().
void carry_channels(core::Runtime& rt,
                    const std::vector<core::Channel*>& channels,
                    const NetSubsystem& net);

}  // namespace ea::net

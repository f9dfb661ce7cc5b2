// Self-healing client connections (DESIGN.md §12).
//
// The five system actors (net/actors.hpp) are deliberately dumb: OPENER
// answers one OpenRequest, READER drops a subscription on EOF, WRITER
// drops a socket's queue on write failure. Recovering from any of that was
// the application's problem. The RECONNECTOR closes the loop: it *owns*
// client connections on behalf of application actors and re-establishes
// them when they die.
//
//   owner (possibly enclaved)                RECONNECTOR (untrusted)
//     add_connection(spec)  ── pre-start ──▶  registry entry
//                                             │ construct(): OpenRequest
//     data mbox  ◀── READER ── inbound bytes ─┤ on OpenReply: subscribe
//     status mbox ◀── ConnStatus{socket,up} ── publish
//     control()  ── down note (reset seen) ──▶ close old, backoff, re-open
//
// Every successful (re)open publishes exactly one Up note naming the new
// socket; a failed or stale open publishes none. The READER subscription
// goes out before the Up note, so the socket's bytes may reach the data
// mbox first; an owner that must know the socket before its bytes (a
// ChannelLink) leaves `data` null and subscribes on the Up note.
//
// The reconnector hands an owner a new socket, never a new nonce space: a
// channel carried over the connection (net/channel_link.hpp) keeps its
// counters across reconnects (core/hop_seal.hpp), and the link writes its
// last frame again on the new socket.
//
// A restart keeps every connection's state: an injected fault strikes
// before body() runs, so the reply of an open in flight still arrives, and
// writing that open off would turn the reply stale and close the socket
// it carries. The open deadline writes off a reply that is really lost.
//
// Re-open pacing uses core::BackoffSchedule — capped exponential backoff
// with jitter — so a dead peer is probed gently and a restored one is
// picked up quickly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/actor.hpp"
#include "core/backoff.hpp"
#include "net/actors.hpp"
#include "net/socket_table.hpp"

namespace ea::net {

// Status note pushed to the owner's status mbox on every connection
// transition (node payload, trivially copyable).
struct ConnStatus {
  std::uint64_t conn_id = 0;
  SocketId socket = -1;  // valid while up
  std::uint8_t up = 0;
  std::uint8_t gave_up = 0;  // max_attempts exhausted; no more retries
};

// One managed client connection. Registered before rt.start().
struct ConnSpec {
  char host[46] = {};
  std::uint16_t port = 0;
  concurrent::Mbox* data = nullptr;    // READER delivers inbound bytes here
                                       // (nullptr: the owner subscribes
                                       // the socket on its Up note)
  concurrent::Mbox* status = nullptr;  // ConnStatus notes delivered here
  concurrent::Pool* pool = nullptr;    // READER node source (nullptr: default)
  core::BackoffPolicy backoff{};
  std::uint32_t max_attempts = 0;  // consecutive failures before giving
                                   // up; 0 = retry forever
};

class ReconnectorActor : public core::Actor {
 public:
  ReconnectorActor(std::string name, NetSubsystem net, concurrent::Pool& pool,
                   std::uint64_t seed = 0xc0ffee);

  // Registers a managed connection; returns its conn_id. Pre-start only —
  // the initial OpenRequests are issued from construct().
  std::uint64_t add_connection(const ConnSpec& spec);

  // Owners push a zero-size node with tag = conn_id here when they observe
  // the connection dead (zero-size data node from READER, write failure).
  // Duplicate notifications for a connection already reconnecting are
  // ignored. The node is consumed.
  concurrent::Mbox& control() noexcept { return control_; }

  void construct(core::Runtime& rt) override;
  bool body() override;
  bool has_pending_work() const override {
    return !control_.empty() || !replies_.empty();
  }
  // Drops the queued notes and replies, and writes off the opens whose
  // replies it dropped. (on_restart() keeps the default: see above.)
  void on_quarantine() override;

  // --- counters for tests / health ---------------------------------------
  std::uint64_t opens() const noexcept { return opens_; }       // successes
  std::uint64_t reconnects() const noexcept {                   // beyond 1st
    return reconnects_;
  }
  std::uint64_t open_failures() const noexcept { return open_failures_; }
  std::uint64_t gave_up() const noexcept { return gave_up_; }

 private:
  using Clock = std::chrono::steady_clock;

  enum class ConnState : std::uint8_t {
    kOpening,  // OpenRequest in flight (deadline-guarded)
    kBackoff,  // waiting for retry_at
    kUp,
    kGaveUp,
  };

  struct Conn {
    ConnSpec spec;
    ConnState state = ConnState::kBackoff;
    core::BackoffSchedule backoff;
    SocketId socket = -1;
    bool opened = false;         // up at least once: the next open reconnects
    std::uint32_t attempts = 0;  // consecutive failures
    Clock::time_point retry_at{};
    Clock::time_point deadline{};
  };

  void send_open(Conn& conn, std::uint64_t conn_id, Clock::time_point now);
  void handle_reply(const OpenReply& reply, Clock::time_point now);
  void handle_down(std::uint64_t conn_id, concurrent::Node* note);
  void fail_attempt(Conn& conn, std::uint64_t conn_id, Clock::time_point now);
  void publish_status(Conn& conn, std::uint64_t conn_id);

  NetSubsystem net_;
  concurrent::Pool& pool_;
  std::uint64_t seed_;
  concurrent::Mbox control_;
  concurrent::Mbox replies_;
  std::vector<Conn> conns_;

  std::uint64_t opens_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t open_failures_ = 0;
  std::uint64_t gave_up_ = 0;
};

// Adds a ReconnectorActor (untrusted) in its own worker group. Call after
// install_networking(); register connections on the returned actor before
// rt.start().
ReconnectorActor& install_reconnector(core::Runtime& rt,
                                      const NetSubsystem& net,
                                      const std::string& name = "net.reconnector");

}  // namespace ea::net

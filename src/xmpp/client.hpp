// Blocking XMPP client (the role libstrophe plays in the paper's
// evaluation §6.4): connects, authenticates, joins rooms, exchanges O2O and
// group-chat messages, and performs the service-level encryption that
// matches the server in e2e.hpp. Used by tests, examples and the benchmark
// load generators; each benchmark client runs in its own thread, as in the
// paper.
#pragma once

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/backoff.hpp"
#include "crypto/rng.hpp"
#include "net/socket.hpp"
#include "xmpp/stanza.hpp"

namespace ea::xmpp {

// Opt-in self-healing for the client: when the connection dies mid-use, the
// client redials the remembered port with capped exponential backoff,
// re-authenticates under the same jid and re-joins every room it had
// joined. Messages in flight during the outage are lost (the service keeps
// no per-client queue) — callers that need delivery resend until
// acknowledged, as the soak tests do.
struct ClientReconnectPolicy {
  bool enabled = false;
  core::BackoffPolicy backoff{/*initial_us=*/2000, /*max_us=*/200'000,
                              /*multiplier=*/2, /*jitter_pct=*/20};
  std::uint32_t max_attempts = 8;  // per outage
  int attempt_timeout_ms = 2000;
};

class Client {
 public:
  Client();

  struct Message {
    std::string kind;  // "chat" | "groupchat" | "presence" | other name
    std::string from;
    std::string body;  // decrypted plaintext for chat/groupchat
    bool decrypt_ok = true;
  };

  // Connects to 127.0.0.1:port, opens the stream and authenticates as
  // `jid`. Returns false on any failure within the timeout.
  bool connect(std::uint16_t port, const std::string& jid,
               int timeout_ms = 5000);

  // Joins a group chat and waits for the presence acknowledgement.
  bool join_room(const std::string& room, int timeout_ms = 5000);

  // O2O: end-to-end encrypts `plaintext` for `to` and sends.
  bool send_chat(const std::string& to, std::string_view plaintext);

  // Group chat: encrypts for the server (sender context) and sends.
  bool send_groupchat(const std::string& room, std::string_view plaintext);

  // Returns the next inbound message, waiting up to timeout_ms. Presence
  // acks and stream errors are surfaced too (kind = stanza name).
  std::optional<Message> recv(int timeout_ms = 5000);

  // Non-blocking variant: returns a message only if one is already
  // available or arrives without waiting.
  std::optional<Message> poll();

  const std::string& jid() const noexcept { return jid_; }

  // Arms automatic reconnection (see ClientReconnectPolicy). May be called
  // before or after connect().
  void enable_reconnect(ClientReconnectPolicy policy = {});

  // Completed automatic reconnections.
  std::uint64_t reconnects() const noexcept { return reconnects_; }

  void close();

 private:
  bool send_all(std::string_view bytes, int timeout_ms = 5000);
  // Reads whatever is available (waiting up to timeout_ms for the first
  // byte) and converts stream events into queued messages.
  bool pump(int timeout_ms);
  void enqueue_event(const StanzaStream::Event& event);
  // Redials/re-authenticates/re-joins after an observed disconnect.
  // Returns true once the session is restored.
  bool try_reconnect();

  net::Socket socket_;
  StanzaStream stream_;
  std::string jid_;
  crypto::FastRng rng_;
  std::deque<Message> queue_;

  ClientReconnectPolicy reconnect_;
  std::uint16_t port_ = 0;              // remembered dial target
  std::vector<std::string> rooms_;      // re-joined after reconnect
  bool reconnecting_ = false;           // guards recursion via connect()
  std::uint64_t reconnects_ = 0;
};

}  // namespace ea::xmpp

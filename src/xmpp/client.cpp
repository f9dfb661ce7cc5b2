#include "xmpp/client.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/logging.hpp"
#include "xmpp/e2e.hpp"

namespace ea::xmpp {
namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - Clock::now())
                  .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

bool wait_fd(int fd, short events, int timeout_ms) {
  pollfd pfd{fd, events, 0};
  return ::poll(&pfd, 1, timeout_ms) > 0;
}

}  // namespace

Client::Client() : rng_(fresh_nonce()) {}

bool Client::connect(std::uint16_t port, const std::string& jid,
                     int timeout_ms) {
  auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  port_ = port;
  stream_ = StanzaStream{};  // fresh parser state on every (re)dial; queued
                             // messages already received are kept
  socket_ = net::Socket::connect_to("127.0.0.1", port);
  if (!socket_.valid()) return false;
  // Wait for the non-blocking connect to finish.
  if (!wait_fd(socket_.fd(), POLLOUT, timeout_ms)) return false;
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(socket_.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
      err != 0) {
    close();
    return false;
  }
  jid_ = jid;

  if (!send_all(make_stream_open("ea-xmpp"), remaining_ms(deadline)) ||
      !send_all(make_auth(jid), remaining_ms(deadline))) {
    close();
    return false;
  }
  // Expect the server's stream open, then <success/>.
  while (Clock::now() < deadline) {
    auto msg = recv(remaining_ms(deadline));
    if (!msg.has_value()) break;
    if (msg->kind == "success") return true;
    if (msg->kind == "stream:error" || msg->kind == "failure") break;
  }
  close();
  return false;
}

bool Client::join_room(const std::string& room, int timeout_ms) {
  if (!send_all(make_presence_join(jid_, room), timeout_ms)) return false;
  auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    auto msg = recv(remaining_ms(deadline));
    if (!msg.has_value()) return false;
    if (msg->kind == "presence" && msg->from == room) {
      // Remember the membership so an automatic reconnect can restore it.
      if (std::find(rooms_.begin(), rooms_.end(), room) == rooms_.end()) {
        rooms_.push_back(room);
      }
      return true;
    }
    // Anything else (e.g. early chat traffic) goes back to the queue tail.
    queue_.push_back(std::move(*msg));
  }
  return false;
}

bool Client::send_chat(const std::string& to, std::string_view plaintext) {
  std::string sealed =
      seal_body(user_key(to, kCtxO2O), rng_.next(), plaintext);
  return send_all(make_chat_message(jid_, to, sealed));
}

bool Client::send_groupchat(const std::string& room,
                            std::string_view plaintext) {
  std::string sealed =
      seal_body(user_key(jid_, kCtxGroupUp), rng_.next(), plaintext);
  return send_all(make_groupchat_message(jid_, room, sealed));
}

void Client::enqueue_event(const StanzaStream::Event& event) {
  if (event.type == StanzaStream::EventType::kStreamOpen) return;
  if (event.type == StanzaStream::EventType::kStreamClose) {
    close();
    try_reconnect();
    return;
  }
  const XmlNode& stanza = event.node;
  Message msg;
  msg.kind = stanza.name;
  if (const std::string* from = stanza.attr("from")) msg.from = *from;

  if (stanza.name == "message") {
    const std::string* type = stanza.attr("type");
    msg.kind = type != nullptr ? *type : "chat";
    if (const XmlNode* body = stanza.child("body")) {
      std::string_view ctx = msg.kind == "groupchat" ? kCtxGroup : kCtxO2O;
      auto plain = open_body(user_key(jid_, ctx), body->text);
      if (plain.has_value()) {
        msg.body = std::move(*plain);
      } else {
        msg.body = body->text;
        msg.decrypt_ok = false;
      }
    }
  }
  queue_.push_back(std::move(msg));
}

bool Client::pump(int timeout_ms) {
  if (!socket_.valid()) return false;
  char buf[4096];
  if (timeout_ms > 0 && !wait_fd(socket_.fd(), POLLIN, timeout_ms)) {
    return false;
  }
  long n = socket_.read_nb(std::span<std::uint8_t>(
      reinterpret_cast<std::uint8_t*>(buf), sizeof(buf)));
  if (n < 0) {
    close();
    try_reconnect();
    return false;
  }
  if (n == 0) return false;
  stream_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  while (auto event = stream_.next()) enqueue_event(*event);
  return true;
}

std::optional<Client::Message> Client::recv(int timeout_ms) {
  auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (true) {
    if (!queue_.empty()) {
      Message msg = std::move(queue_.front());
      queue_.pop_front();
      return msg;
    }
    if (!socket_.valid()) return std::nullopt;
    int left = remaining_ms(deadline);
    if (left == 0 && Clock::now() >= deadline) return std::nullopt;
    pump(left > 0 ? left : 1);
  }
}

std::optional<Client::Message> Client::poll() {
  if (queue_.empty() && socket_.valid()) {
    // Drain without waiting.
    char buf[4096];
    long n;
    while ((n = socket_.read_nb(std::span<std::uint8_t>(
                reinterpret_cast<std::uint8_t*>(buf), sizeof(buf)))) > 0) {
      stream_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
    while (auto event = stream_.next()) enqueue_event(*event);
    if (n < 0) {
      close();
      try_reconnect();
    }
  }
  if (queue_.empty()) return std::nullopt;
  Message msg = std::move(queue_.front());
  queue_.pop_front();
  return msg;
}

bool Client::send_all(std::string_view bytes, int timeout_ms) {
  if (!socket_.valid() && !reconnecting_) {
    // A previous failure may have been repaired already; if not, repair now
    // so a fire-and-forget sender recovers without its own retry loop.
    if (!try_reconnect()) return false;
  }
  if (!socket_.valid()) return false;
  auto deadline = Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    long n = socket_.write_nb(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(bytes.data()) + sent,
        bytes.size() - sent));
    if (n < 0) {
      close();
      // The stream restarts from scratch on reconnect, so the whole stanza
      // is resent — never a partial suffix spliced into a fresh stream.
      if (try_reconnect()) return send_all(bytes, timeout_ms);
      return false;
    }
    if (n == 0) {
      if (Clock::now() >= deadline) return false;
      wait_fd(socket_.fd(), POLLOUT, remaining_ms(deadline));
      continue;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void Client::enable_reconnect(ClientReconnectPolicy policy) {
  policy.enabled = true;
  reconnect_ = policy;
}

bool Client::try_reconnect() {
  if (!reconnect_.enabled || reconnecting_ || port_ == 0 || jid_.empty()) {
    return false;
  }
  reconnecting_ = true;
  core::BackoffSchedule schedule(reconnect_.backoff, rng_.next());
  bool ok = false;
  for (std::uint32_t a = 0; a < reconnect_.max_attempts && !ok; ++a) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(schedule.next_delay_us()));
    ok = connect(port_, jid_, reconnect_.attempt_timeout_ms);
  }
  if (ok) {
    // Restore room memberships under the fresh session.
    for (const std::string& room : rooms_) {
      if (!join_room(room, reconnect_.attempt_timeout_ms)) {
        EA_WARN("xmpp", "client %s: failed to re-join %s after reconnect",
                jid_.c_str(), room.c_str());
      }
    }
    ++reconnects_;
    EA_INFO("xmpp", "client %s: reconnected (total %llu)", jid_.c_str(),
            static_cast<unsigned long long>(reconnects_));
  }
  reconnecting_ = false;
  return ok;
}

void Client::close() { socket_.close(); }

}  // namespace ea::xmpp

#include "xmpp/baseline_server.hpp"

#include <poll.h>
#include <sys/socket.h>

#include "util/cycles.hpp"
#include "util/logging.hpp"
#include "xmpp/e2e.hpp"

namespace ea::xmpp {

BaselineServer::BaselineServer(BaselineOptions options)
    : options_(options) {}

BaselineServer::~BaselineServer() { stop(); }

void BaselineServer::start() {
  listener_ = net::Socket::listen_on(options_.port);
  if (!listener_.valid()) {
    throw std::runtime_error("baseline: cannot bind listener");
  }
  port_ = listener_.local_port();
  stop_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { accept_loop(); });
  if (options_.flavor == BaselineFlavor::kEjabberd) {
    dispatcher_thread_ = std::thread([this] { dispatcher_loop(); });
  } else {
    // JabberD2's c2s -> router IPC hop.
    if (::socketpair(AF_UNIX, SOCK_SEQPACKET, 0, router_fds_) != 0) {
      throw std::runtime_error("baseline: socketpair failed");
    }
    router_thread_ = std::thread([this] { router_loop(); });
  }
}

void BaselineServer::stop() {
  if (stop_.exchange(true, std::memory_order_relaxed)) return;
  // Shutdown (not close) while accept_loop may still be polling the fd;
  // the close happens after the join.
  listener_.shutdown_both();
  queue_cv_.notify_all();
  if (router_fds_[0] >= 0) {
    ::shutdown(router_fds_[0], SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.close();
  if (dispatcher_thread_.joinable()) dispatcher_thread_.join();
  if (router_thread_.joinable()) router_thread_.join();
  for (int& fd : router_fds_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
  // Shut the sockets down (not close: closing would race the connection
  // threads' concurrent reads of the descriptor — found by TSan) to
  // unblock the connection threads, join them, and only then close.
  std::vector<std::unique_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (auto& conn : conns_) conn->socket.shutdown_both();
    conns.swap(conns_);
  }
  for (auto& conn : conns) {
    if (conn->thread.joinable()) conn->thread.join();
    conn->socket.close();
  }
}

void BaselineServer::accept_loop() {
  while (!stop_.load(std::memory_order_relaxed)) {
    pollfd pfd{listener_.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    auto accepted = listener_.accept_nb();
    if (!accepted.has_value()) continue;
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(*accepted);
    Connection* raw = conn.get();
    // Thread-per-connection: the JabberD2-style architecture the paper
    // measures against.
    conn->thread = std::thread([this, raw] { connection_loop(raw); });
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.push_back(std::move(conn));
  }
}

void BaselineServer::connection_loop(Connection* conn) {
  StanzaStream stream;
  char buf[4096];
  while (!stop_.load(std::memory_order_relaxed) && conn->socket.valid()) {
    pollfd pfd{conn->socket.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, 50) <= 0) continue;
    long n = conn->socket.read_nb(std::span<std::uint8_t>(
        reinterpret_cast<std::uint8_t*>(buf), sizeof(buf)));
    if (n < 0) break;
    if (n == 0) continue;
    stream.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    while (auto event = stream.next()) {
      switch (event->type) {
        case StanzaStream::EventType::kStreamOpen:
          send_to(*conn, make_stream_open("baseline"));
          break;
        case StanzaStream::EventType::kStreamClose:
          drop(*conn);
          return;
        case StanzaStream::EventType::kStanza:
          if (options_.flavor == BaselineFlavor::kEjabberd) {
            // Funnel through the central dispatcher (managed-runtime
            // message passing).
            std::lock_guard<std::mutex> lock(queue_mu_);
            queue_.push_back(DispatchItem{conn, std::move(event->node)});
            queue_cv_.notify_one();
          } else {
            // c2s -> router hop over the local socket, re-serialised like
            // JabberD2's inter-component protocol.
            forward_to_router(conn, event->node);
          }
          break;
      }
    }
    if (stream.failed()) break;
  }
  drop(*conn);
}

void BaselineServer::forward_to_router(Connection* conn,
                                       const XmlNode& stanza) {
  std::string wire = stanza.serialize();
  std::string frame;
  frame.resize(sizeof(Connection*) + wire.size());
  std::memcpy(frame.data(), &conn, sizeof(Connection*));
  std::memcpy(frame.data() + sizeof(Connection*), wire.data(), wire.size());
  std::lock_guard<std::mutex> lock(router_write_mu_);
  if (::send(router_fds_[0], frame.data(), frame.size(), MSG_NOSIGNAL) < 0 &&
      !stop_.load(std::memory_order_relaxed)) {
    EA_WARN("baseline", "router forward failed");
  }
}

void BaselineServer::router_loop() {
  std::vector<char> buf(64 * 1024);
  while (!stop_.load(std::memory_order_relaxed)) {
    ssize_t n = ::recv(router_fds_[1], buf.data(), buf.size(), 0);
    if (n <= 0) {
      if (stop_.load(std::memory_order_relaxed)) return;
      continue;
    }
    if (static_cast<std::size_t>(n) <= sizeof(Connection*)) continue;
    Connection* conn;
    std::memcpy(&conn, buf.data(), sizeof(Connection*));
    // The router re-parses the stanza, as JabberD2 components do.
    std::string_view wire(buf.data() + sizeof(Connection*),
                          static_cast<std::size_t>(n) - sizeof(Connection*));
    std::size_t pos = 0;
    auto stanza = parse_element(wire, pos);
    if (stanza.has_value()) handle_stanza(*conn, *stanza);
  }
}

void BaselineServer::dispatcher_loop() {
  while (true) {
    DispatchItem item{nullptr, {}};
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (stop_.load(std::memory_order_relaxed) && queue_.empty()) return;
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    // Per-message runtime overhead of the managed runtime.
    util::burn_cycles(options_.dispatch_overhead_cycles);
    handle_stanza(*item.conn, item.stanza);
  }
}

void BaselineServer::handle_stanza(Connection& conn, const XmlNode& stanza) {
  if (stanza.name == "auth") {
    const std::string* jid = stanza.attr("jid");
    if (jid == nullptr || jid->empty()) {
      send_to(conn, make_error("bad-auth"));
      return;
    }
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      conn.jid = *jid;
      conn.authed = true;
      directory_[*jid] = &conn;
    }
    send_to(conn, make_auth_success());
    return;
  }
  if (!conn.authed) {
    send_to(conn, make_error("not-authorized"));
    return;
  }

  if (stanza.name == "presence") {
    const std::string* room = stanza.attr("to");
    if (room != nullptr && !room->empty()) {
      std::lock_guard<std::mutex> lock(state_mu_);
      auto& members = rooms_[*room];
      bool present = false;
      for (const auto& m : members) present |= (m == conn.jid);
      if (!present) members.push_back(conn.jid);
    }
    send_to(conn, make_presence_join(*stanza.attr("to"), conn.jid));
    return;
  }

  if (stanza.name == "message") {
    const std::string* to = stanza.attr("to");
    const std::string* type = stanza.attr("type");
    const XmlNode* body = stanza.child("body");
    if (to == nullptr || body == nullptr) return;

    if (type != nullptr && *type == "groupchat") {
      process_groupchat(conn.jid, *to, body->text);
      return;
    }

    Connection* dest = nullptr;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      auto it = directory_.find(*to);
      if (it != directory_.end()) dest = it->second;
    }
    if (dest == nullptr) {
      send_to(conn, make_error("recipient-unavailable"));
      return;
    }
    if (send_to(*dest, make_chat_message(conn.jid, *to, body->text))) {
      routed_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
}

void BaselineServer::process_groupchat(const std::string& from,
                                       const std::string& room,
                                       const std::string& body) {
  auto plain = open_body(user_key(from, kCtxGroupUp), body);
  if (!plain.has_value()) return;

  std::vector<std::pair<std::string, Connection*>> targets;
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    auto it = rooms_.find(room);
    if (it == rooms_.end()) return;
    for (const std::string& member : it->second) {
      auto dit = directory_.find(member);
      if (dit != directory_.end()) targets.emplace_back(member, dit->second);
    }
  }
  for (auto& [member, dest] : targets) {
    std::string sealed =
        seal_body(user_key(member, kCtxGroup), fresh_nonce(), *plain);
    if (send_to(*dest,
                make_groupchat_message(room + "/" + from, member, sealed))) {
      routed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

bool BaselineServer::send_to(Connection& conn, std::string_view bytes) {
  std::lock_guard<std::mutex> lock(conn.write_mu);
  if (!conn.socket.valid()) return false;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    long n = conn.socket.write_nb(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(bytes.data()) + sent,
        bytes.size() - sent));
    if (n < 0) return false;
    if (n == 0) {
      pollfd pfd{conn.socket.fd(), POLLOUT, 0};
      if (::poll(&pfd, 1, 1000) <= 0) return false;
      continue;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void BaselineServer::drop(Connection& conn) {
  {
    std::lock_guard<std::mutex> lock(state_mu_);
    if (!conn.jid.empty()) {
      auto it = directory_.find(conn.jid);
      if (it != directory_.end() && it->second == &conn) directory_.erase(it);
      for (auto& [room, members] : rooms_) std::erase(members, conn.jid);
    }
  }
  // Shutdown only — the fd stays valid until stop() has joined this
  // connection's thread, so concurrent send_to()/stop() never race a
  // close. Taken under write_mu so an in-flight send_to drains first;
  // its next write then fails cleanly with EPIPE.
  std::lock_guard<std::mutex> lock(conn.write_mu);
  conn.socket.shutdown_both();
}

}  // namespace ea::xmpp

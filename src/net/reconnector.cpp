#include "net/reconnector.hpp"

#include <cstring>

#include "core/runtime.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace ea::net {

namespace {

// A wedged OPENER (or a dropped reply node) must not strand a connection in
// kOpening forever: after this long the attempt is written off and retried.
constexpr std::uint64_t kOpenTimeoutUs = 200'000;

}  // namespace

ReconnectorActor::ReconnectorActor(std::string name, NetSubsystem net,
                                   concurrent::Pool& pool, std::uint64_t seed)
    : core::Actor(std::move(name)), net_(std::move(net)), pool_(pool),
      seed_(seed) {}

std::uint64_t ReconnectorActor::add_connection(const ConnSpec& spec) {
  Conn conn;
  conn.spec = spec;
  conn.backoff = core::BackoffSchedule(
      spec.backoff, seed_ + (conns_.size() + 1) * 0x9e3779b9ULL);
  conn.retry_at = Clock::time_point{};  // due immediately
  conns_.push_back(conn);
  return conns_.size() - 1;
}

void ReconnectorActor::construct(core::Runtime& rt) {
  (void)rt;
  Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    send_open(conns_[i], i, now);
  }
}

void ReconnectorActor::on_quarantine() {
  concurrent::Node* burst[kRequestBurst];
  std::size_t got;
  while ((got = control_.pop_burst(burst, kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease(burst[b]).reset();
    }
  }
  while ((got = replies_.pop_burst(burst, kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease(burst[b]).reset();
    }
  }
  // The replies just dropped answered the opens in flight: write those
  // attempts off, so a later restart redials them at once.
  Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].state == ConnState::kOpening) {
      fail_attempt(conns_[i], i, now);
    }
  }
}

bool ReconnectorActor::body() {
  bool progress = false;
  Clock::time_point now = Clock::now();
  concurrent::Node* burst[kRequestBurst];
  std::size_t got;

  // 1. Down notifications from owners.
  while ((got = control_.pop_burst(burst, kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      handle_down(burst[b]->tag, burst[b]);
    }
    progress = true;
  }

  // 2. OPENER replies.
  while ((got = replies_.pop_burst(burst, kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease lease(burst[b]);
      OpenReply reply;
      if (read_struct(*burst[b], reply)) handle_reply(reply, now);
    }
    progress = true;
  }

  // 3. Timers: due retries and timed-out opens.
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& conn = conns_[i];
    if (conn.state == ConnState::kBackoff && now >= conn.retry_at) {
      send_open(conn, i, now);
      progress = true;
    } else if (conn.state == ConnState::kOpening && now >= conn.deadline) {
      EA_WARN("net", "reconnector: open of conn %zu timed out", i);
      fail_attempt(conn, i, now);
      progress = true;
    }
  }
  return progress;
}

void ReconnectorActor::send_open(Conn& conn, std::uint64_t conn_id,
                                 Clock::time_point now) {
  concurrent::Node* node = pool_.get();
  if (node == nullptr) {
    // Pool pressure: stay in kBackoff and retry the allocation next round.
    conn.state = ConnState::kBackoff;
    conn.retry_at = now;
    return;
  }
  OpenRequest req;
  req.kind = OpenRequest::kConnect;
  req.port = conn.spec.port;
  std::memcpy(req.host, conn.spec.host, sizeof(req.host));
  req.cookie = conn_id;
  req.reply = &replies_;
  write_struct(*node, req);
  net_.opener->requests().push(node);
  conn.state = ConnState::kOpening;
  conn.deadline = now + std::chrono::microseconds(kOpenTimeoutUs);
}

void ReconnectorActor::handle_reply(const OpenReply& reply,
                                    Clock::time_point now) {
  if (reply.cookie >= conns_.size()) return;
  Conn& conn = conns_[reply.cookie];
  if (conn.state != ConnState::kOpening) {
    // Stale reply (the attempt already timed out and was retried): do not
    // leak the socket the late reply carries.
    if (reply.id >= 0) net_.table->close(reply.id);
    return;
  }
  SocketId id = reply.id;
  // Injected refusal: the peer accepted but we treat the attempt as failed,
  // exercising the retry path deterministically.
  if (id >= 0 && EA_FAIL_TRIGGERED("net.reconnect.refuse")) {
    net_.table->close(id);
    id = -1;
  }
  if (id < 0) {
    fail_attempt(conn, reply.cookie, now);
    return;
  }

  // Success: re-arm the READER subscription for the new socket (unless the
  // owner subscribes it itself) and tell the owner which socket to talk
  // through now.
  if (conn.spec.data != nullptr) {
    concurrent::Node* sub_node = pool_.get();
    if (sub_node == nullptr) {
      // Without a subscription the connection would be write-only; treat
      // as a failed attempt rather than hand the owner a half-wired socket.
      net_.table->close(id);
      fail_attempt(conn, reply.cookie, now);
      return;
    }
    ReadSubscribe sub;
    sub.socket = id;
    sub.data = conn.spec.data;
    sub.pool = conn.spec.pool;
    write_struct(*sub_node, sub);
    net_.reader->requests().push(sub_node);
  }

  conn.socket = id;
  conn.state = ConnState::kUp;
  conn.attempts = 0;
  conn.backoff.reset();
  ++opens_;
  if (conn.opened) ++reconnects_;
  conn.opened = true;
  EA_INFO("net", "reconnector: conn %llu up (socket %lld)",
          static_cast<unsigned long long>(reply.cookie),
          static_cast<long long>(id));
  publish_status(conn, reply.cookie);
}

void ReconnectorActor::handle_down(std::uint64_t conn_id,
                                   concurrent::Node* note) {
  if (conn_id >= conns_.size() || conns_[conn_id].state != ConnState::kUp) {
    // Unknown id or already reconnecting: drop the duplicate notification.
    concurrent::NodeLease(note).reset();
    return;
  }
  Conn& conn = conns_[conn_id];
  EA_INFO("net", "reconnector: conn %llu down (socket %lld)",
          static_cast<unsigned long long>(conn_id),
          static_cast<long long>(conn.socket));
  // Reuse the notification node as the CLOSER request for the dead socket
  // (READER already dropped its subscription on EOF; close is idempotent).
  note->tag = static_cast<std::uint64_t>(conn.socket);
  note->size = 0;
  net_.closer->input().push(note);
  conn.socket = -1;
  conn.state = ConnState::kBackoff;
  conn.retry_at =
      Clock::now() + std::chrono::microseconds(conn.backoff.next_delay_us());
}

void ReconnectorActor::fail_attempt(Conn& conn, std::uint64_t conn_id,
                                    Clock::time_point now) {
  ++open_failures_;
  ++conn.attempts;
  if (conn.spec.max_attempts != 0 &&
      conn.attempts >= conn.spec.max_attempts) {
    conn.state = ConnState::kGaveUp;
    ++gave_up_;
    EA_WARN("net", "reconnector: conn %llu gave up after %u attempts",
            static_cast<unsigned long long>(conn_id), conn.attempts);
    publish_status(conn, conn_id);
    return;
  }
  conn.state = ConnState::kBackoff;
  conn.retry_at = now + std::chrono::microseconds(conn.backoff.next_delay_us());
}

void ReconnectorActor::publish_status(Conn& conn, std::uint64_t conn_id) {
  if (conn.spec.status == nullptr) return;
  concurrent::Node* node = pool_.get();
  if (node == nullptr) {
    EA_WARN("net", "reconnector: pool exhausted, dropping status note");
    return;
  }
  ConnStatus status;
  status.conn_id = conn_id;
  status.socket = conn.socket;
  status.up = conn.state == ConnState::kUp ? 1 : 0;
  status.gave_up = conn.state == ConnState::kGaveUp ? 1 : 0;
  write_struct(*node, status);
  conn.spec.status->push(node);
}

ReconnectorActor& install_reconnector(core::Runtime& rt,
                                      const NetSubsystem& net,
                                      const std::string& name) {
  auto recon = std::make_unique<ReconnectorActor>(name, net, rt.public_pool());
  ReconnectorActor& ref = *recon;
  rt.add_actor(std::move(recon));
  rt.add_group({name + ".worker", name + ".worker", {name}});
  return ref;
}

}  // namespace ea::net

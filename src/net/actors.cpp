#include "net/actors.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "core/runtime.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace ea::net {

namespace {

constexpr int kEpollBatch = 256;  // kernel reports fetched per READER round

// Quarantine path: returns every node still queued in `mbox` to its pool so
// conservation holds after the supervisor parks the actor.
void drain_to_pools(concurrent::Mbox& mbox) noexcept {
  concurrent::Node* burst[kWriteBurst];
  std::size_t got;
  while ((got = mbox.pop_burst(burst, kWriteBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease(burst[b]).reset();
    }
  }
}

}  // namespace

void OpenerActor::on_quarantine() { drain_to_pools(requests_); }
void AccepterActor::on_quarantine() { drain_to_pools(requests_); }
void CloserActor::on_quarantine() { drain_to_pools(input_); }

void ReaderActor::on_quarantine() { drain_to_pools(requests_); }

bool OpenerActor::body() {
  bool progress = false;
  concurrent::Node* burst[kRequestBurst];
  std::size_t got;
  while ((got = requests_.pop_burst(burst, kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease req_lease(burst[b]);
      OpenRequest req;
      if (!read_struct(*burst[b], req) || req.reply == nullptr) continue;
      progress = true;

      OpenReply reply;
      reply.cookie = req.cookie;
      if (req.kind == OpenRequest::kListen) {
        Socket socket = Socket::listen_on(req.port);
        if (socket.valid()) {
          reply.port = socket.local_port();
          reply.id = table_->add(std::move(socket));
        }
      } else {
        Socket socket = Socket::connect_to(req.host, req.port);
        if (socket.valid()) {
          reply.id = table_->add(std::move(socket));
        }
      }

      concurrent::Node* reply_node = pool_.get();
      if (reply_node == nullptr) {
        EA_WARN("net", "opener: reply pool exhausted, dropping reply");
        continue;
      }
      write_struct(*reply_node, reply);
      req.reply->push(reply_node);
    }
  }
  return progress;
}

bool AccepterActor::body() {
  bool progress = false;
  concurrent::Node* burst[kRequestBurst];
  std::size_t got;
  while ((got = requests_.pop_burst(burst, kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease req_lease(burst[b]);
      AcceptSubscribe sub;
      if (read_struct(*burst[b], sub) && sub.reply != nullptr) {
        listeners_.push_back(sub);
        progress = true;
      }
    }
  }
  for (const AcceptSubscribe& sub : listeners_) {
    // Accept as many pending connections as are queued.
    while (true) {
      std::optional<Socket> accepted;
      bool alive = table_->with(sub.listener, [&](Socket& listener) {
        accepted = listener.accept_nb();
      });
      if (!alive || !accepted.has_value()) break;
      SocketId id = table_->add(std::move(*accepted));
      concurrent::Node* note = pool_.get();
      if (note == nullptr) {
        // No node to notify with: close the connection rather than leak it.
        table_->close(id);
        EA_WARN("net", "accepter: pool exhausted, dropping connection");
        break;
      }
      note->tag = static_cast<std::uint64_t>(id);
      note->size = 0;
      sub.reply->push(note);
      progress = true;
    }
  }
  return progress;
}

ReaderActor::ReaderActor(std::string name, std::shared_ptr<SocketTable> table,
                         concurrent::Pool& default_pool)
    : core::Actor(std::move(name)),
      table_(std::move(table)),
      default_pool_(default_pool),
      epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  set_priority(core::ActorPriority::kHigh);
  if (epfd_ < 0) {
    EA_WARN("net", "reader: epoll_create1 failed (errno=%d)", errno);
  }
}

ReaderActor::~ReaderActor() {
  if (epfd_ >= 0) ::close(epfd_);
}

// Drains up to kReadBurst reads from one socket, accumulating the data
// nodes in a private chain handed to the consumer's mbox with a single
// push_chain — one lock acquisition per burst instead of one per TCP
// segment. A read that does not fill its node emptied the socket, so the
// burst ends there: level triggering reports the socket again if more
// bytes arrive, and no EAGAIN read is needed to learn it is dry.
ReaderActor::Drain ReaderActor::drain_socket(SocketId id, Sub& sub,
                                             bool& progress) {
  concurrent::ChainBuilder chain;
  Drain result = Drain::kOpen;
  for (std::size_t b = 0; b < kReadBurst; ++b) {
    // Injected exhaustion of the subscription's pool: the reader must
    // back off for the round without dropping the subscription or data.
    if (EA_FAIL_TRIGGERED("net.reader.pool_empty")) {
      result = Drain::kNoNodes;
      break;
    }
    concurrent::Node* node = sub.pool->get();
    if (node == nullptr) {
      result = Drain::kNoNodes;  // backpressure: retry next round
      break;
    }
    long n = 0;
    bool alive = table_->with(id, [&](Socket& socket) {
      n = socket.read_nb(node->writable());
    });
    if (!alive || n < 0) {
      // EOF or closed: deliver a zero-length node as the close signal
      // and drop the subscription.
      node->tag = static_cast<std::uint64_t>(id);
      node->size = 0;
      chain.append(node);
      result = Drain::kClosed;
      break;
    }
    if (n == 0) {
      sub.pool->put(node);
      break;
    }
    node->tag = static_cast<std::uint64_t>(id);
    node->size = static_cast<std::uint32_t>(n);
    chain.append(node);
    if (static_cast<std::size_t>(n) < node->writable().size()) break;
  }
  if (!chain.empty()) {
    progress = true;
    chain.flush_into(*sub.data);
  }
  return result;
}

void ReaderActor::subscribe(const ReadSubscribe& req, bool& progress) {
  auto [it, inserted] = subs_.try_emplace(req.socket);
  it->second.data = req.data;
  it->second.pool = req.pool != nullptr ? req.pool : &default_pool_;
  if (!inserted) return;  // re-subscription: already registered
  // Registered under the table lock, so a concurrent CLOSER cannot close
  // the fd, and let it be recycled, between the lookup and epoll_ctl.
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.u64 = static_cast<std::uint64_t>(req.socket);
  int err = 0;
  const bool alive = table_->with(req.socket, [&](Socket& socket) {
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, socket.fd(), &ev) != 0) err = errno;
  });
  if (err != 0) EA_WARN("net", "reader: epoll_ctl ADD failed (errno=%d)", err);
  // Closed before the subscription arrived: its EOF is due now.
  if (!alive) serve(it, progress);
}

// Drains one subscription and retires it at EOF. Returns false when the
// pool ran dry, which ends the round.
bool ReaderActor::serve(SubIt it, bool& progress) {
  const Drain result = drain_socket(it->first, it->second, progress);
  if (result == Drain::kClosed) {
    // Level triggering would report an EOF socket every round. A socket
    // closed on this side has already left the set with its fd.
    table_->with(it->first, [&](Socket& socket) {
      ::epoll_ctl(epfd_, EPOLL_CTL_DEL, socket.fd(), nullptr);
    });
    subs_.erase(it);
  }
  return result != Drain::kNoNodes;
}

// A socket closed on this side (SocketTable::close) leaves the epoll set
// without an event. Each round checks one subscription, in id order,
// against the table and serves a closed one, which delivers its EOF: a
// bounded cost per round, and every dead subscription is found within
// subs_.size() rounds.
void ReaderActor::probe_one(bool& progress) {
  auto it = subs_.upper_bound(probe_cursor_);
  if (it == subs_.end()) it = subs_.begin();
  const SocketId id = it->first;
  if (table_->fd(id) < 0 && !serve(it, progress)) return;  // pool dry
  probe_cursor_ = id;
}

bool ReaderActor::body() {
  bool progress = false;
  concurrent::Node* burst[kRequestBurst];
  std::size_t got;
  while ((got = requests_.pop_burst(burst, kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease req_lease(burst[b]);
      ReadSubscribe req;
      if (read_struct(*burst[b], req) && req.data != nullptr &&
          req.socket >= 0) {
        subscribe(req, progress);
        progress = true;
      }
    }
  }
  if (subs_.empty()) return progress;

  epoll_event evs[kEpollBatch];
  const int n = ::epoll_wait(epfd_, evs, kEpollBatch, 0);
  const int start =
      n > 0 ? static_cast<int>(rotation_++ % static_cast<std::size_t>(n)) : 0;
  for (int i = 0; i < n; ++i) {
    auto it = subs_.find(static_cast<SocketId>(evs[(start + i) % n].data.u64));
    if (it != subs_.end() && !serve(it, progress)) break;  // pool dry
  }
  if (!subs_.empty()) probe_one(progress);
  return progress;
}

bool WriterActor::body() {
  bool progress = false;
  concurrent::Node* burst[kWriteBurst];
  std::size_t got;
  while ((got = input_.pop_burst(burst, kWriteBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::Node* node = burst[b];
      pending_[static_cast<SocketId>(node->tag)].push_back(Pending{node, 0});
    }
    progress = true;
  }

  // Rotate the drain starting point: resume after the id the previous round
  // started at, wrapping around. Without this, iteration always began at the
  // lowest socket id, and one slow socket whose kernel buffer kept filling
  // (write_nb == 0 after partial progress) would be revisited first every
  // round while high ids waited — unfair under many connections.
  if (!pending_.empty()) {
    auto it = pending_.upper_bound(drain_cursor_);
    if (it == pending_.end()) it = pending_.begin();
    drain_cursor_ = it->first;
    std::size_t remaining = pending_.size();
    while (remaining-- > 0) {
      SocketId id = it->first;
      std::deque<Pending>& q = it->second;
      bool drop_socket = false;
      while (!q.empty()) {
        Pending& p = q.front();
        long n = -1;
        bool alive = table_->with(id, [&](Socket& socket) {
          n = socket.write_nb(p.node->data().subspan(p.offset));
        });
        if (!alive || n < 0) {
          drop_socket = true;
          break;
        }
        if (n == 0) break;  // kernel buffer full: retry next round
        p.offset += static_cast<std::size_t>(n);
        progress = true;
        if (p.offset >= p.node->size) {
          concurrent::NodeLease(p.node).reset();  // return to its pool
          q.pop_front();
        }
      }
      if (drop_socket) {
        for (Pending& p : q) concurrent::NodeLease(p.node).reset();
        it = pending_.erase(it);
      } else if (q.empty()) {
        it = pending_.erase(it);
      } else {
        ++it;
      }
      if (pending_.empty()) break;
      if (it == pending_.end()) it = pending_.begin();
    }
  }
  return progress;
}

void WriterActor::park_pending() noexcept {
  drain_to_pools(input_);
  for (auto& [id, q] : pending_) {
    for (Pending& p : q) concurrent::NodeLease(p.node).reset();
  }
  pending_.clear();
}

WriterActor::~WriterActor() { park_pending(); }

void WriterActor::on_quarantine() { park_pending(); }

bool CloserActor::body() {
  bool progress = false;
  concurrent::Node* burst[kRequestBurst];
  std::size_t got;
  while ((got = input_.pop_burst(burst, kRequestBurst)) != 0) {
    for (std::size_t b = 0; b < got; ++b) {
      concurrent::NodeLease lease(burst[b]);
      if (table_->close(static_cast<SocketId>(burst[b]->tag))) {
        closes_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    progress = true;
  }
  return progress;
}

NetSubsystem install_networking(core::Runtime& rt,
                                const std::string& worker_name) {
  NetSubsystem sub;
  sub.table = std::make_shared<SocketTable>();
  concurrent::Pool& pool = rt.public_pool();

  auto opener =
      std::make_unique<OpenerActor>(worker_name + ".opener", sub.table, pool);
  auto accepter = std::make_unique<AccepterActor>(worker_name + ".accepter",
                                                  sub.table, pool);
  auto reader =
      std::make_unique<ReaderActor>(worker_name + ".reader", sub.table, pool);
  auto writer =
      std::make_unique<WriterActor>(worker_name + ".writer", sub.table);
  auto closer =
      std::make_unique<CloserActor>(worker_name + ".closer", sub.table);

  sub.opener = opener.get();
  sub.accepter = accepter.get();
  sub.reader = reader.get();
  sub.writer = writer.get();
  sub.closer = closer.get();

  rt.add_actor(std::move(opener));
  rt.add_actor(std::move(accepter));
  rt.add_actor(std::move(reader));
  rt.add_actor(std::move(writer));
  rt.add_actor(std::move(closer));

  std::vector<std::string> actor_names;
  for (const char* suffix :
       {".opener", ".accepter", ".reader", ".writer", ".closer"}) {
    actor_names.push_back(worker_name + suffix);
  }
  rt.add_group({worker_name, worker_name, std::move(actor_names)});
  return sub;
}

}  // namespace ea::net

// Networking system actors (paper §4.2, Fig. 6).
//
// TCP is provided by five *untrusted* eactors — an enclave cannot perform
// system calls, so all socket work is delegated to these actors and results
// flow back through mboxes:
//
//   OPENER   creates listening or client sockets on request
//   ACCEPTER accepts connections on registered listeners
//   READER   polls registered sockets and forwards data to per-socket mboxes
//   WRITER   writes nodes (tagged with a socket id) out to the network
//   CLOSER   closes sockets
//
// Requests and replies are plain structs carried in node payloads; mboxes
// are MPMC, so any number of application eactors can share one set of
// system actors, and the application layer scales independently of the
// networking layer.
#pragma once

#include <atomic>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/actor.hpp"
#include "net/socket_table.hpp"

namespace ea::net {

// Burst sizes for the system actors' mbox traffic: one lock acquisition
// moves up to this many nodes (Mbox::pop_burst / ChainBuilder::flush_into).
inline constexpr std::size_t kRequestBurst = 16;  // control-plane requests
inline constexpr std::size_t kReadBurst = 8;      // reads per socket per round
inline constexpr std::size_t kWriteBurst = 64;    // writer input drain

// --- wire structs between application actors and system actors -----------

struct OpenRequest {
  enum Kind : std::uint32_t { kListen = 0, kConnect = 1 };
  std::uint32_t kind = kListen;
  std::uint16_t port = 0;
  char host[46] = {};
  std::uint64_t cookie = 0;  // echoed back so callers can match replies
  concurrent::Mbox* reply = nullptr;
};

struct OpenReply {
  SocketId id = -1;  // negative on failure
  std::uint64_t cookie = 0;
  std::uint16_t port = 0;  // bound port for listeners
};

struct AcceptSubscribe {
  SocketId listener = -1;
  concurrent::Mbox* reply = nullptr;  // accepted ids arrive as node tags
};

struct ReadSubscribe {
  SocketId socket = -1;
  concurrent::Mbox* data = nullptr;  // data nodes: tag = socket id
  concurrent::Pool* pool = nullptr;  // nodes drawn from here (nullptr: default)
};

// Helpers to move structs through payloads safely.
template <typename T>
void write_struct(concurrent::Node& node, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(node.payload(), &value, sizeof(T));
  node.size = sizeof(T);
}

template <typename T>
bool read_struct(const concurrent::Node& node, T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (node.size < sizeof(T)) return false;
  std::memcpy(&value, node.payload(), sizeof(T));
  return true;
}

// --- the actors ------------------------------------------------------------

class OpenerActor : public core::Actor {
 public:
  OpenerActor(std::string name, std::shared_ptr<SocketTable> table,
              concurrent::Pool& pool)
      : core::Actor(std::move(name)), table_(std::move(table)), pool_(pool) {
    // fd-facing: socket readiness must not queue behind bulk message churn
    // under the stealing scheduler.
    set_priority(core::ActorPriority::kHigh);
  }

  concurrent::Mbox& requests() noexcept { return requests_; }
  bool body() override;
  bool has_pending_work() const override { return !requests_.empty(); }
  void on_quarantine() override;

 private:
  std::shared_ptr<SocketTable> table_;
  concurrent::Pool& pool_;
  concurrent::Mbox requests_;
};

class AccepterActor : public core::Actor {
 public:
  AccepterActor(std::string name, std::shared_ptr<SocketTable> table,
                concurrent::Pool& pool)
      : core::Actor(std::move(name)), table_(std::move(table)), pool_(pool) {
    set_priority(core::ActorPriority::kHigh);
  }

  concurrent::Mbox& requests() noexcept { return requests_; }
  bool body() override;
  bool has_pending_work() const override { return !requests_.empty(); }
  void on_quarantine() override;

 private:
  std::shared_ptr<SocketTable> table_;
  concurrent::Pool& pool_;
  concurrent::Mbox requests_;
  std::vector<AcceptSubscribe> listeners_;
};

// The READER owns one level-triggered epoll instance (DESIGN.md §16): a
// subscription registers its socket once, and each round drains only the
// sockets the kernel reports readable. Level triggering reports a socket
// again while bytes remain, so a round cut short by a dry pool or the burst
// budget loses nothing, and idle sockets cost no syscall.
class ReaderActor : public core::Actor {
 public:
  ReaderActor(std::string name, std::shared_ptr<SocketTable> table,
              concurrent::Pool& default_pool);
  ~ReaderActor() override;

  concurrent::Mbox& requests() noexcept { return requests_; }
  bool body() override;
  bool has_pending_work() const override { return !requests_.empty(); }
  void on_quarantine() override;

 private:
  struct Sub {
    concurrent::Mbox* data = nullptr;
    concurrent::Pool* pool = nullptr;
  };
  using SubIt = std::map<SocketId, Sub>::iterator;
  enum class Drain {
    kOpen,     // drained or kReadBurst reached: still subscribed
    kClosed,   // EOF delivered, subscription to be dropped
    kNoNodes,  // pool exhausted: back off, retry next round
  };
  Drain drain_socket(SocketId id, Sub& sub, bool& progress);
  void subscribe(const ReadSubscribe& req, bool& progress);
  bool serve(SubIt it, bool& progress);
  void probe_one(bool& progress);

  std::shared_ptr<SocketTable> table_;
  concurrent::Pool& default_pool_;
  concurrent::Mbox requests_;
  int epfd_ = -1;
  std::map<SocketId, Sub> subs_;
  // Fairness: the kernel reports ready sockets in a stable order, so the
  // drain starts one report later each round; a hot socket that eats the
  // pool cannot starve the ones reported after it.
  std::size_t rotation_ = 0;
  // The subscription the closed-socket probe checked last (probe_one).
  SocketId probe_cursor_ = -1;
};

class WriterActor : public core::Actor {
 public:
  WriterActor(std::string name, std::shared_ptr<SocketTable> table)
      : core::Actor(std::move(name)), table_(std::move(table)) {
    set_priority(core::ActorPriority::kHigh);
  }
  // Parks every queued node back into its pool: whether the writer dies
  // with the runtime or is quarantined by the supervisor, node
  // conservation must hold for the surviving deployment.
  ~WriterActor() override;

  // Push nodes with tag = socket id, payload = bytes to transmit.
  concurrent::Mbox& input() noexcept { return input_; }

  bool body() override;
  bool has_pending_work() const override { return !input_.empty(); }
  void on_quarantine() override;

 private:
  struct Pending {
    concurrent::Node* node;
    std::size_t offset;
  };
  void park_pending() noexcept;

  std::shared_ptr<SocketTable> table_;
  concurrent::Mbox input_;
  std::map<SocketId, std::deque<Pending>> pending_;
  // Fairness: the socket id the per-round drain loop resumes *after*, so a
  // slow-draining early id cannot starve later ids round after round.
  SocketId drain_cursor_ = -1;
};

class CloserActor : public core::Actor {
 public:
  CloserActor(std::string name, std::shared_ptr<SocketTable> table)
      : core::Actor(std::move(name)), table_(std::move(table)) {
    set_priority(core::ActorPriority::kHigh);
  }

  // Push nodes with tag = socket id.
  concurrent::Mbox& input() noexcept { return input_; }
  bool body() override;
  bool has_pending_work() const override { return !input_.empty(); }
  void on_quarantine() override;

  // Sockets actually closed (duplicate close requests for an id already
  // torn down do not count — SocketTable::close() is idempotent).
  std::uint64_t closes() const noexcept {
    return closes_.load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<SocketTable> table_;
  concurrent::Mbox input_;
  std::atomic<std::uint64_t> closes_{0};
};

// Aggregated networking subsystem: the five actors plus the shared socket
// table, installed into a runtime in one call.
struct NetSubsystem {
  std::shared_ptr<SocketTable> table;
  OpenerActor* opener = nullptr;
  AccepterActor* accepter = nullptr;
  ReaderActor* reader = nullptr;
  WriterActor* writer = nullptr;
  CloserActor* closer = nullptr;
};

// Adds the system actors (untrusted) as one worker group named
// `worker_name`. The SocketTable is owned by the runtime's actor objects
// (the opener holds it); the returned view stays valid for the runtime's
// lifetime.
NetSubsystem install_networking(core::Runtime& rt,
                                const std::string& worker_name);

}  // namespace ea::net

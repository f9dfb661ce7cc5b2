// Baseline XMPP servers standing in for the paper's comparison systems.
//
// The paper benches against vanilla JabberD2 (C, multi-process, blocking
// I/O, coarse shared state) and ejabberd (Erlang). Neither can be run here,
// so we implement architectural stand-ins that exhibit the cost structure
// those systems lose by (see DESIGN.md, substitutions):
//
//  * kJabberd2: one blocking thread per connection; routing state behind a
//    single global mutex. JabberD2 is *multi-process*: every stanza crosses
//    from the c2s component to the router/session-manager over a local
//    socket and is re-serialised + re-parsed on the way. The stand-in
//    reproduces that hop with a SOCK_SEQPACKET socketpair into a router
//    thread.
//  * kEjabberd: same connection handling, but every stanza is funnelled
//    through a central dispatcher queue served by a small scheduler pool,
//    with per-message runtime overhead — modelling the managed-runtime
//    indirection. Saturates at a lower plateau, like EJB in Fig. 14.
//
// Protocol semantics (auth, O2O routing, group-chat re-encryption) are
// identical to the EActors service so benchmarks measure architecture, not
// features.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.hpp"
#include "xmpp/stanza.hpp"

namespace ea::xmpp {

enum class BaselineFlavor { kJabberd2, kEjabberd };

struct BaselineOptions {
  BaselineFlavor flavor = BaselineFlavor::kJabberd2;
  std::uint16_t port = 0;  // 0 = pick a free port
  // Cycles of per-stanza runtime overhead in the kEjabberd flavor.
  std::uint64_t dispatch_overhead_cycles = 25000;
};

class BaselineServer {
 public:
  explicit BaselineServer(BaselineOptions options);
  ~BaselineServer();

  BaselineServer(const BaselineServer&) = delete;
  BaselineServer& operator=(const BaselineServer&) = delete;

  void start();
  void stop();

  std::uint16_t port() const noexcept { return port_; }
  std::uint64_t messages_routed() const noexcept {
    return routed_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    net::Socket socket;
    std::thread thread;
    std::mutex write_mu;
    std::string jid;
    bool authed = false;
  };

  struct DispatchItem {
    Connection* conn;
    XmlNode stanza;
  };

  void accept_loop();
  void connection_loop(Connection* conn);
  void dispatcher_loop();
  void router_loop();
  void forward_to_router(Connection* conn, const XmlNode& stanza);
  void handle_stanza(Connection& conn, const XmlNode& stanza);
  void process_groupchat(const std::string& from, const std::string& room,
                         const std::string& body);
  bool send_to(Connection& conn, std::string_view bytes);
  void drop(Connection& conn);

  BaselineOptions options_;
  std::uint16_t port_ = 0;
  net::Socket listener_;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::thread dispatcher_thread_;
  std::thread router_thread_;
  int router_fds_[2] = {-1, -1};  // SOCK_SEQPACKET pair: [0] conns, [1] router
  std::mutex router_write_mu_;

  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;

  // The coarse global routing lock both baselines share.
  std::mutex state_mu_;
  std::map<std::string, Connection*> directory_;
  std::map<std::string, std::vector<std::string>> rooms_;

  // kEjabberd dispatcher queue.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<DispatchItem> queue_;

  std::atomic<std::uint64_t> routed_{0};
};

}  // namespace ea::xmpp

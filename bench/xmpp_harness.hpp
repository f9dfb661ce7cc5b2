// Shared load generators for the messaging-service benchmarks
// (Figures 14–17). Mirrors the paper's §6.4 methodology:
//
//  O2O: half the clients send, half receive; a receiver echoes every chat
//  message back to its sender; a sender issues the next message upon the
//  echo. Throughput = completed send/receive pairs per second across all
//  senders.
//
//  O2M: all participants join one room; participant 0 sends a new group
//  message whenever it receives its previous one. Throughput = group
//  messages delivered per second (across all members).
//
// Each emulated client runs in its own thread (the paper spawns a thread
// per client).
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "util/bytes.hpp"
#include "xmpp/client.hpp"

namespace ea::bench {

// A population of connected-and-authenticated clients that never send:
// ballast for the connection-count sweep (the c100k question scaled into
// the figure benches — how much does an idle population cost the active
// one?). The READER's epoll set reports only sockets with data, so idle
// connections cost nothing after registration. Connections drop when the
// object goes out of scope.
class IdleClients {
 public:
  // Connects `count` idle clients; returns how many actually made it (the
  // benches report the attempt loudly rather than failing the run).
  int connect(std::uint16_t port, int count) {
    clients_.reserve(clients_.size() + static_cast<std::size_t>(count));
    int ok = 0;
    for (int i = 0; i < count; ++i) {
      xmpp::Client c;
      if (c.connect(port, "idle" + std::to_string(clients_.size()))) {
        clients_.push_back(std::move(c));
        ++ok;
      }
    }
    return ok;
  }
  std::size_t size() const noexcept { return clients_.size(); }

 private:
  std::vector<xmpp::Client> clients_;
};

// Idle-connection ballast column for the figure sweeps: when
// EA_XMPP_IDLE_SWEEP is set to N > 0, each EA series is additionally
// measured with N idle connections alongside and reported with an
// "+Nidle" series suffix. 0 (the default) keeps the classic figures.
inline int idle_sweep_count() {
  return static_cast<int>(util::env_int("EA_XMPP_IDLE_SWEEP", 0));
}

inline double xmpp_o2o_throughput(std::uint16_t port, int clients,
                                  double seconds) {
  const int pairs = clients / 2;
  if (pairs == 0) return 0;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<int> ready{0};

  std::vector<std::thread> threads;
  // Receivers: echo every chat back to its sender.
  for (int i = 0; i < pairs; ++i) {
    threads.emplace_back([&, i] {
      xmpp::Client client;
      if (!client.connect(port, "recv" + std::to_string(i))) {
        ready.fetch_add(1);
        return;
      }
      ready.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        auto msg = client.recv(20);
        if (msg.has_value() && msg->kind == "chat") {
          client.send_chat(msg->from, msg->body);
        }
      }
    });
  }
  // Senders.
  for (int i = 0; i < pairs; ++i) {
    threads.emplace_back([&, i] {
      xmpp::Client client;
      if (!client.connect(port, "send" + std::to_string(i))) {
        ready.fetch_add(1);
        return;
      }
      ready.fetch_add(1);
      // Wait until everyone connected so directories are populated.
      while (ready.load() < clients && !stop.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::string payload = util::random_printable(
          static_cast<std::uint64_t>(i), 150);
      std::string peer = "recv" + std::to_string(i);
      while (!stop.load(std::memory_order_relaxed)) {
        if (!client.send_chat(peer, payload)) break;
        // Wait for the echo.
        bool got = false;
        while (!got && !stop.load(std::memory_order_relaxed)) {
          auto msg = client.recv(20);
          if (msg.has_value() && msg->kind == "chat") got = true;
        }
        if (got) completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Let connections settle, then measure.
  while (ready.load() < clients) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::uint64_t before = completed.load();
  Timer timer;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  std::uint64_t delta = completed.load() - before;
  double elapsed = timer.seconds();
  stop.store(true);
  for (auto& t : threads) t.join();
  return static_cast<double>(delta) / elapsed;
}

inline double xmpp_o2m_throughput(std::uint16_t port, int participants,
                                  double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<int> joined{0};
  const std::string room = "bench-room";

  std::vector<std::thread> threads;
  // Passive members.
  for (int i = 1; i < participants; ++i) {
    threads.emplace_back([&, i] {
      xmpp::Client client;
      if (!client.connect(port, "member" + std::to_string(i)) ||
          !client.join_room(room)) {
        joined.fetch_add(1);
        return;
      }
      joined.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        auto msg = client.recv(20);
        if (msg.has_value() && msg->kind == "groupchat") {
          delivered.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // The driving member: sends the next message upon receiving its own.
  threads.emplace_back([&] {
    xmpp::Client client;
    if (!client.connect(port, "member0") || !client.join_room(room)) {
      joined.fetch_add(1);
      return;
    }
    joined.fetch_add(1);
    while (joined.load() < participants && !stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::string payload = util::random_printable(99, 150);
    client.send_groupchat(room, payload);
    while (!stop.load(std::memory_order_relaxed)) {
      auto msg = client.recv(20);
      if (msg.has_value() && msg->kind == "groupchat") {
        delivered.fetch_add(1, std::memory_order_relaxed);
        client.send_groupchat(room, payload);
      }
    }
  });

  while (joined.load() < participants) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::uint64_t before = delivered.load();
  Timer timer;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  std::uint64_t delta = delivered.load() - before;
  double elapsed = timer.seconds();
  stop.store(true);
  for (auto& t : threads) t.join();
  return static_cast<double>(delta) / elapsed;
}

// Multiple independent groups, one driver per group (paper §6.4.2's first
// observation: total throughput is flat in the number of groups because
// each group works almost in isolation). Returns aggregate delivered/s.
inline double xmpp_o2m_multi_group(std::uint16_t port, int groups,
                                   int participants_per_group,
                                   double seconds) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<int> joined{0};
  const int total = groups * participants_per_group;

  std::vector<std::thread> threads;
  for (int g = 0; g < groups; ++g) {
    std::string room = "multi-room-" + std::to_string(g);
    for (int i = 0; i < participants_per_group; ++i) {
      bool driver = i == 0;
      threads.emplace_back([&, room, g, i, driver] {
        xmpp::Client client;
        // g<g>m<i>, appended: "g" + std::to_string(g) trips a false GCC 12
        // -Wrestrict overlap at -O3.
        std::string jid = "g";
        jid += std::to_string(g);
        jid += 'm';
        jid += std::to_string(i);
        if (!client.connect(port, jid) || !client.join_room(room)) {
          joined.fetch_add(1);
          return;
        }
        joined.fetch_add(1);
        if (driver) {
          while (joined.load() < total && !stop.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          client.send_groupchat(room, "m");
        }
        while (!stop.load(std::memory_order_relaxed)) {
          auto msg = client.recv(20);
          if (msg.has_value() && msg->kind == "groupchat") {
            delivered.fetch_add(1, std::memory_order_relaxed);
            if (driver) client.send_groupchat(room, "m");
          }
        }
      });
    }
  }

  while (joined.load() < total) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::uint64_t before = delivered.load();
  Timer timer;
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(seconds * 1000)));
  std::uint64_t delta = delivered.load() - before;
  double elapsed = timer.seconds();
  stop.store(true);
  for (auto& t : threads) t.join();
  return static_cast<double>(delta) / elapsed;
}

}  // namespace ea::bench

// C100K: stanza latency and throughput under tens of thousands of
// mostly-idle XMPP connections. The READER polls its own level-triggered
// epoll set (DESIGN.md §16), so it pays only for sockets with data: a
// small active set should keep its latency regardless of how many idle
// connections sit alongside. Rows keep the `epoll` series label of the
// committed BENCH_net.json, whose `scan` rows record the per-socket recv
// sweep this plane replaced.
//
// Methodology: a fleet of forked driver processes (a thread per client
// cannot reach these counts) each runs a raw epoll loop over its share of
// the connections. Every client connects, authenticates and goes idle; a
// small fixed subset (EA_NET_ACTIVE, default 64) then plays self-chat
// ping-pong — each sent <message> is routed by the server back to the
// sender's own socket, so one round trip crosses READER → XMPP → WRITER
// once and its RTT is a clean stanza-latency sample. RTTs land in a
// util::LatencyHist per child; children ship raw buckets to the parent
// over a pipe, which merges them into p50/p99/p999 for the v3 JSON report
// (written to EA_BENCH_JSON when set; the committed one is BENCH_net.json).
//
// The sweep targets 50k–100k clients but is clamped to RLIMIT_NOFILE (the
// server process holds one fd per connection); the clamp is reported
// loudly rather than silently shrinking the x axis. `--smoke` pins a
// 0.25 s window and the two smallest sweep points so scripts/check.sh can
// compare runs against the committed BENCH_net.json (netperf leg).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/runtime.hpp"
#include "sgxsim/enclave.hpp"
#include "util/bench_report.hpp"
#include "util/env.hpp"
#include "util/latency_hist.hpp"
#include "xmpp/server.hpp"
#include "xmpp/stanza.hpp"

using namespace ea;

namespace {

using Clock = std::chrono::steady_clock;

// Results a driver child ships to the parent: connection tally, completed
// echoes, its measurement window, and the raw latency buckets (µs).
struct WireResult {
  std::uint64_t connected = 0;
  std::uint64_t echoes = 0;
  double elapsed = 0;
  std::uint64_t buckets[util::LatencyHist::kBuckets] = {};
};

// Connections initiated per ramp wave (per child): bounded so listen
// backlog overflow degrades into SYN retransmits, not failures.
constexpr int kWave = 256;

bool send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      ::usleep(100);  // ramp/echo writes are tiny; a full buffer is brief
      continue;
    }
    return false;
  }
  return true;
}

bool read_full(int fd, void* buf, std::size_t len, int timeout_ms) {
  auto* p = static_cast<char*>(buf);
  std::size_t off = 0;
  while (off < len) {
    pollfd pfd{fd, POLLIN, 0};
    int r = ::poll(&pfd, 1, timeout_ms);
    if (r <= 0) return false;
    ssize_t n = ::read(fd, p + off, len - off);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

// Counts occurrences of `needle` in the stream chunk, carrying a tail
// between chunks so matches spanning a read boundary are not lost.
struct NeedleCounter {
  std::string needle;
  std::string carry;
  std::uint64_t scan(const char* data, std::size_t len) {
    carry.append(data, len);
    std::uint64_t hits = 0;
    std::size_t pos = 0;
    while ((pos = carry.find(needle, pos)) != std::string::npos) {
      ++hits;
      pos += needle.size();
    }
    const std::size_t keep =
        std::min(carry.size(), needle.size() > 1 ? needle.size() - 1 : 0);
    carry.erase(0, carry.size() - keep);
    return hits;
  }
};

// One simulated client inside a driver child.
struct SimClient {
  int fd = -1;
  enum State { kConnecting, kGreeting, kReady } state = kConnecting;
  bool active = false;
  bool awaiting = false;
  Clock::time_point sent_at;
  std::string jid;
  NeedleCounter auth{"<success", {}};
  NeedleCounter echo{"</message>", {}};
};

// The forked driver: ramps `conns` clients against 127.0.0.1:`port` from
// source address 127.0.`src_a`.`src_b` (a fresh source IP per child per
// point keeps TIME_WAIT from exhausting one address's ephemeral ports),
// signals readiness, then measures self-chat RTT on its `active` subset
// for `seconds`. Never returns.
[[noreturn]] void run_driver(std::uint16_t port, int child_idx, int conns,
                             int active, int src_a, int src_b, double seconds,
                             int ctl_fd, int res_fd) {
  WireResult result;
  util::LatencyHist hist;
  std::vector<SimClient> clients(static_cast<std::size_t>(conns));
  int ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) ::_exit(2);

  sockaddr_in src{};
  src.sin_family = AF_INET;
  src.sin_addr.s_addr =
      htonl(0x7F000000u | (static_cast<std::uint32_t>(src_a) << 8) |
            static_cast<std::uint32_t>(src_b));
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(port);
  dst.sin_addr.s_addr = htonl(0x7F000001u);  // 127.0.0.1

  const std::string greeting_prefix = xmpp::make_stream_open("ea-xmpp");
  auto drive_events = [&](int timeout_ms, auto&& on_ready_data) {
    epoll_event evs[512];
    int n = ::epoll_wait(ep, evs, 512, timeout_ms);
    for (int i = 0; i < n; ++i) {
      auto& c = clients[evs[i].data.u32];
      if (c.fd < 0) continue;
      if (c.state == SimClient::kConnecting &&
          (evs[i].events & (EPOLLOUT | EPOLLHUP | EPOLLERR)) != 0) {
        int err = 0;
        socklen_t len = sizeof(err);
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          ::close(c.fd);
          c.fd = -1;
          continue;
        }
        if (!send_all(c.fd, greeting_prefix + xmpp::make_auth(c.jid))) {
          ::close(c.fd);
          c.fd = -1;
          continue;
        }
        c.state = SimClient::kGreeting;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u32 = evs[i].data.u32;
        ::epoll_ctl(ep, EPOLL_CTL_MOD, c.fd, &ev);
        continue;
      }
      if ((evs[i].events & EPOLLIN) != 0) {
        char buf[4096];
        ssize_t got;
        while ((got = ::recv(c.fd, buf, sizeof(buf), 0)) > 0) {
          if (c.state == SimClient::kGreeting) {
            if (c.auth.scan(buf, static_cast<std::size_t>(got)) > 0) {
              c.state = SimClient::kReady;
              ++result.connected;
            }
          } else if (c.state == SimClient::kReady) {
            on_ready_data(c, buf, static_cast<std::size_t>(got));
          }
        }
        if (got == 0 || (got < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
          ::close(c.fd);
          c.fd = -1;
        }
      }
    }
  };
  auto ignore_data = [](SimClient&, const char*, std::size_t) {};

  // --- ramp, one wave at a time -----------------------------------------
  // Jids are c<child>x<i>, built by appending: "c" + std::to_string(...)
  // trips a false GCC 12 -Wrestrict overlap at -O3.
  std::string jid_prefix = "c";
  jid_prefix += std::to_string(child_idx);
  jid_prefix += 'x';
  for (int base = 0; base < conns; base += kWave) {
    const int wave_end = std::min(conns, base + kWave);
    for (int i = base; i < wave_end; ++i) {
      SimClient& c = clients[static_cast<std::size_t>(i)];
      c.jid = jid_prefix;
      c.jid += std::to_string(i);
      c.fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      if (c.fd < 0) continue;
      (void)::bind(c.fd, reinterpret_cast<sockaddr*>(&src), sizeof(src));
      if (::connect(c.fd, reinterpret_cast<sockaddr*>(&dst), sizeof(dst)) <
              0 &&
          errno != EINPROGRESS) {
        ::close(c.fd);
        c.fd = -1;
        continue;
      }
      epoll_event ev{};
      ev.events = EPOLLOUT | EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(i);
      ::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev);
    }
    // Wait until this wave has authenticated (or its sockets died) before
    // launching the next, so the listener backlog is never swamped.
    auto wave_deadline = Clock::now() + std::chrono::seconds(60);
    auto wave_settled = [&] {
      for (int i = base; i < wave_end; ++i) {
        const SimClient& c = clients[static_cast<std::size_t>(i)];
        if (c.fd >= 0 && c.state != SimClient::kReady) return false;
      }
      return true;
    };
    while (!wave_settled() && Clock::now() < wave_deadline) {
      drive_events(50, ignore_data);
    }
  }

  // --- handshake with the parent, then measure --------------------------
  for (int i = 0; i < active && i < conns; ++i) {
    SimClient& c = clients[static_cast<std::size_t>(i)];
    if (c.fd >= 0 && c.state == SimClient::kReady) c.active = true;
  }
  char ready = 'R';
  if (::write(res_fd, &ready, 1) != 1) ::_exit(3);
  char go = 0;
  if (!read_full(ctl_fd, &go, 1, 300'000)) ::_exit(4);

  const std::string payload = "c100k-ping";
  auto fire = [&](SimClient& c) {
    c.sent_at = Clock::now();
    c.awaiting = send_all(c.fd, xmpp::make_chat_message("", c.jid, payload));
  };
  for (SimClient& c : clients) {
    if (c.active && c.fd >= 0) fire(c);
  }
  auto on_echo = [&](SimClient& c, const char* data, std::size_t len) {
    const std::uint64_t hits = c.echo.scan(data, len);
    if (hits == 0 || !c.active || !c.awaiting) return;
    const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                        Clock::now() - c.sent_at)
                        .count();
    hist.record(static_cast<std::uint64_t>(us > 0 ? us : 1));
    ++result.echoes;
    fire(c);  // one outstanding message per active client
  };

  const auto t0 = Clock::now();
  const auto t_end =
      t0 + std::chrono::microseconds(static_cast<long>(seconds * 1e6));
  while (Clock::now() < t_end) drive_events(5, on_echo);
  result.elapsed = std::chrono::duration<double>(Clock::now() - t0).count();

  for (std::size_t i = 0; i < util::LatencyHist::kBuckets; ++i) {
    result.buckets[i] = hist.buckets()[i];
  }
  if (::write(res_fd, &result, sizeof(result)) != sizeof(result)) ::_exit(5);
  ::_exit(0);  // no teardown of inherited runtime state in the child
}

struct PointResult {
  bool ok = false;
  std::uint64_t connected = 0;
  double throughput = 0;
  util::BenchPercentiles pcts;
};

// Global counter handing every child of every point a distinct loopback
// source address (127.0.a.b), so TIME_WAIT entries from a finished point
// cannot exhaust the next point's ephemeral ports.
int g_src_counter = 0;

PointResult run_point(int conns, int active, double seconds) {
  PointResult out;
  core::RuntimeOptions options;
  options.pool_nodes = 16384;
  options.node_payload_bytes = 2048;
  options.sched = core::SchedMode::kSteal;
  core::Runtime rt(options);
  xmpp::XmppServiceConfig config;
  config.instances = 1;
  config.trusted = false;  // the net plane, not the enclave sim, is under test
  xmpp::XmppService service = xmpp::install_xmpp_service(rt, config);

  const int children = conns >= 4096 ? 4 : 2;
  struct Child {
    pid_t pid = -1;
    int ctl = -1;  // parent → child ("go")
    int res = -1;  // child → parent ('R' + WireResult)
  };
  std::vector<Child> kids(static_cast<std::size_t>(children));
  const int per_child = conns / children;
  const int per_child_active = active / children;

  // Fork the drivers BEFORE rt.start(): the runtime has no worker threads
  // yet, so the children never inherit a mid-operation lock.
  for (int k = 0; k < children; ++k) {
    int ctl[2], res[2];
    if (::pipe(ctl) != 0 || ::pipe(res) != 0) return out;
    ++g_src_counter;
    const int src_a = 1 + g_src_counter / 250;
    const int src_b = 1 + g_src_counter % 250;
    const int share =
        k == children - 1 ? conns - per_child * (children - 1) : per_child;
    const int share_active = k == children - 1
                                 ? active - per_child_active * (children - 1)
                                 : per_child_active;
    pid_t pid = ::fork();
    if (pid == 0) {
      ::close(ctl[1]);
      ::close(res[0]);
      run_driver(service.port, k, share, share_active, src_a, src_b, seconds,
                 ctl[0], res[1]);
    }
    ::close(ctl[0]);
    ::close(res[1]);
    kids[static_cast<std::size_t>(k)] = Child{pid, ctl[1], res[0]};
  }

  rt.start();

  bool all_ready = true;
  for (Child& kid : kids) {
    char r = 0;
    if (!read_full(kid.res, &r, 1, 600'000) || r != 'R') all_ready = false;
  }
  if (all_ready) {
    for (Child& kid : kids) {
      char go = 'G';
      (void)!::write(kid.ctl, &go, 1);
    }
    util::LatencyHist merged;
    double window = 0;
    std::uint64_t echoes = 0;
    bool results_ok = true;
    for (Child& kid : kids) {
      WireResult wr;
      if (!read_full(kid.res, &wr, sizeof(wr), 600'000)) {
        results_ok = false;
        continue;
      }
      out.connected += wr.connected;
      echoes += wr.echoes;
      window = std::max(window, wr.elapsed);
      for (std::size_t i = 0; i < util::LatencyHist::kBuckets; ++i) {
        if (wr.buckets[i] != 0) merged.add_bucket(i, wr.buckets[i]);
      }
    }
    if (results_ok && window > 0) {
      out.ok = true;
      out.throughput = static_cast<double>(echoes) / window;
      out.pcts.p50_us = static_cast<double>(merged.percentile(0.5));
      out.pcts.p99_us = static_cast<double>(merged.percentile(0.99));
      out.pcts.p999_us = static_cast<double>(merged.percentile(0.999));
    }
  }

  for (Child& kid : kids) {
    ::close(kid.ctl);
    ::close(kid.res);
    int status = 0;
    ::waitpid(kid.pid, &status, 0);
  }
  rt.stop();
  sgxsim::EnclaveManager::instance().reset_for_testing();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke =
      argc > 1 && std::string(argv[1]) == "--smoke";

  // One fd per connection lives in the server (this) process: raise the
  // soft limit to the hard cap and clamp the sweep below it.
  rlimit nofile{};
  ::getrlimit(RLIMIT_NOFILE, &nofile);
  nofile.rlim_cur = nofile.rlim_max;
  ::setrlimit(RLIMIT_NOFILE, &nofile);
  const int fd_cap = static_cast<int>(
      std::min<rlim_t>(nofile.rlim_max, 1'000'000));
  const int conn_cap = fd_cap - 600;  // pool/epoll/pipe/listener headroom

  bench::csv_header();
  const double seconds =
      smoke ? 0.25 : std::max(1.0, bench::seconds_per_point());
  const int active = static_cast<int>(util::env_int("EA_NET_ACTIVE", 64));

  std::vector<int> sweep{512, 2048};
  if (!smoke) {
    const int target = static_cast<int>(
        util::env_int("EA_NET_MAX_CLIENTS", 50'000));
    for (int c : {target, 2 * target}) {
      const int clamped = std::min(c, conn_cap);
      if (clamped > sweep.back()) sweep.push_back(clamped);
    }
    if (sweep.back() < target) {
      bench::note(
          "RLIMIT_NOFILE (hard=%d) caps the sweep at %d concurrent "
          "clients — the %d-client target needs a higher fd limit",
          fd_cap, sweep.back(), target);
    }
  }

  util::BenchReport report("c100k");
  const char* series = "epoll";
  for (int conns : sweep) {
    PointResult r = run_point(conns, active, seconds);
    if (!r.ok || r.connected < static_cast<std::uint64_t>(conns) * 95 / 100) {
      bench::note("%s @%d: only %llu/%d clients completed auth — point "
                  "unreliable",
                  series, conns, static_cast<unsigned long long>(r.connected),
                  conns);
    }
    bench::row("c100k", series, conns, r.throughput, "echo/s");
    bench::note("%s @%d: p50=%.0fus p99=%.0fus p999=%.0fus (%llu clients)",
                series, conns, r.pcts.p50_us, r.pcts.p99_us, r.pcts.p999_us,
                static_cast<unsigned long long>(r.connected));
    report.add("c100k", series, conns, r.throughput, "echo/s", r.pcts);
  }

  return bench::write_report(report) ? 0 : 1;
}

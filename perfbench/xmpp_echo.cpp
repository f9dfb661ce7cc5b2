// xmpp_echo: XMPP one-to-one chat (paper Fig. 14, EA/3). One trusted
// instance on the default planes (static scheduler, net scan). A single
// generator thread drives 2 sender/receiver pairs over 4 loopback
// connections: each sender end-to-end encrypts a 150-byte chat, the
// receiver echoes it back, and the sender sends the next chat only after
// its echo. This loads the READER/WRITER syscalls, stanza parsing and
// routing and the hand-off across four workers, while crypto stays small.
//
// The generator is pinned to the CONNECTOR's CPU: that worker is idle once
// the clients are logged in.
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "sgxsim/enclave.hpp"
#include "util/bytes.hpp"
#include "workloads.hpp"
#include "xmpp/client.hpp"
#include "xmpp/server.hpp"

namespace perfbench {
namespace {

constexpr int kPairs = 2;
constexpr std::size_t kChatBytes = 150;
constexpr std::size_t kBodies = 64;  // distinct seeded payloads per pair
constexpr int kGeneratorCpu = 1;     // xmpp.conn (net0=0, app0=2, net1=3)
constexpr std::size_t kSeqDigits = 16;
constexpr std::uint64_t kSliceNs = 100'000'000;  // ~850 echoes

// Chat bodies start with the fixed-width sequence number, so a late echo
// from an earlier, timed-out chat is recognised and skipped.
std::uint64_t body_seq(std::string_view body) {
  if (body.size() < kSeqDigits) return ~0ull;
  return std::strtoull(std::string(body.substr(0, kSeqDigits)).c_str(),
                       nullptr, 16);
}

struct Pair {
  ea::xmpp::Client sender;
  ea::xmpp::Client receiver;
  std::string sender_jid;
  std::string receiver_jid;
  std::vector<std::string> payloads;  // seeded, generated before timing

  enum class State { kIdle, kAwaitForward, kAwaitEcho };
  State state = State::kIdle;
  std::uint64_t seq = 0;
  std::string body;
  std::uint64_t deadline_ns = 0;
  Span send, forward_recv, echo_send, echo_recv;
};

// One echo completed (or failed) by EchoDriver::step().
struct Echo {
  bool done = false;
  bool ok = false;
  Span rtt;
  Span client[4];  // send, forward recv, echo send, echo recv
};

class EchoDriver {
 public:
  explicit EchoDriver(std::chrono::milliseconds deadline)
      : deadline_ns_(static_cast<std::uint64_t>(deadline.count()) * 1000000ull) {}

  // Advances pair `p` by one non-blocking step.
  Echo step(Pair& p, Outcome& outcome) {
    Echo echo;
    switch (p.state) {
      case Pair::State::kIdle: {
        p.body = p.payloads[p.seq % p.payloads.size()];
        char seq[kSeqDigits + 1];
        std::snprintf(seq, sizeof(seq), "%016llx",
                      static_cast<unsigned long long>(p.seq));
        p.body.replace(0, kSeqDigits, seq, kSeqDigits);
        p.send.begin_ns = now_ns();
        const bool sent = p.sender.send_chat(p.receiver_jid, p.body);
        p.send.end_ns = now_ns();
        p.deadline_ns = p.send.begin_ns + deadline_ns_;
        if (!sent) return finish(p, echo, Verdict::kLost, outcome);
        p.state = Pair::State::kAwaitForward;
        return echo;
      }
      case Pair::State::kAwaitForward: {
        const std::uint64_t begin = now_ns();
        std::optional<ea::xmpp::Client::Message> msg = p.receiver.poll();
        const std::uint64_t end = now_ns();
        if (msg && msg->kind == "chat") {
          // The receiver echoes whatever it gets; the sender checks it.
          p.echo_send.begin_ns = now_ns();
          p.receiver.send_chat(msg->from, msg->body);
          p.echo_send.end_ns = now_ns();
          if (body_seq(msg->body) == p.seq) {
            p.forward_recv = {begin, end};
            p.state = Pair::State::kAwaitEcho;
          }
        }
        break;
      }
      case Pair::State::kAwaitEcho: {
        const std::uint64_t begin = now_ns();
        std::optional<ea::xmpp::Client::Message> msg = p.sender.poll();
        const std::uint64_t end = now_ns();
        if (msg && msg->kind == "chat" && body_seq(msg->body) == p.seq) {
          p.echo_recv = {begin, end};
          echo.rtt = {p.send.begin_ns, end};
          echo.client[0] = p.send;
          echo.client[1] = p.forward_recv;
          echo.client[2] = p.echo_send;
          echo.client[3] = p.echo_recv;
          const bool same = msg->decrypt_ok && msg->body == p.body;
          return finish(p, echo, same ? Verdict::kOk : Verdict::kWrong,
                        outcome);
        }
        break;
      }
    }
    if (now_ns() > p.deadline_ns) {
      return finish(p, echo, Verdict::kLost, outcome);
    }
    return echo;
  }

 private:
  enum class Verdict { kOk, kLost, kWrong };

  Echo& finish(Pair& p, Echo& echo, Verdict verdict, Outcome& outcome) {
    echo.done = true;
    echo.ok = verdict == Verdict::kOk;
    if (verdict == Verdict::kWrong) outcome.wrong_output();
    else outcome.record(echo.ok);
    p.state = Pair::State::kIdle;
    ++p.seq;
    return echo;
  }

  std::uint64_t deadline_ns_;
};

struct Service {
  std::unique_ptr<ea::core::Runtime> rt;
  ea::xmpp::XmppService service;
  std::vector<std::unique_ptr<Pair>> pairs;
};

// Seeded jids and payloads; no runtime is touched.
std::vector<std::unique_ptr<Pair>> make_pairs(std::uint64_t seed,
                                              std::size_t chat_bytes,
                                              Digest& digest) {
  std::vector<std::unique_ptr<Pair>> pairs;
  for (int i = 0; i < kPairs; ++i) {
    auto p = std::make_unique<Pair>();
    const std::uint64_t id = mix64(seed * 0x100 + static_cast<std::uint64_t>(i));
    char jid[32];
    std::snprintf(jid, sizeof(jid), "s%012llx",
                  static_cast<unsigned long long>(id >> 16));
    p->sender_jid = jid;
    std::snprintf(jid, sizeof(jid), "r%012llx",
                  static_cast<unsigned long long>(id >> 16));
    p->receiver_jid = jid;
    for (std::size_t b = 0; b < kBodies; ++b) {
      p->payloads.push_back(
          ea::util::random_printable(mix64(id + b), chat_bytes));
      digest.add(ea::util::to_bytes(p->payloads.back()));
    }
    digest.add(ea::util::to_bytes(p->sender_jid + p->receiver_jid));
    pairs.push_back(std::move(p));
  }
  return pairs;
}

// Starts the service and logs every client in.
bool start_service(Service& s) {
  ea::core::RuntimeOptions options;
  options.pool_nodes = 8192;
  options.node_payload_bytes = 2048;
  s.rt = std::make_unique<ea::core::Runtime>(options);
  ea::xmpp::XmppServiceConfig config;
  config.instances = 1;
  s.service = ea::xmpp::install_xmpp_service(*s.rt, config);
  s.rt->start();
  for (auto& p : s.pairs) {
    if (!p->sender.connect(s.service.port, p->sender_jid) ||
        !p->receiver.connect(s.service.port, p->receiver_jid)) {
      return false;
    }
  }
  return true;
}

void stop_service(Service& s) {
  for (auto& p : s.pairs) {
    p->sender.close();
    p->receiver.close();
  }
  s.rt->stop();
  s.rt.reset();
  ea::sgxsim::EnclaveManager::instance().reset_for_testing();
}

// Drives one echo on `p` to completion.
Echo one_echo(EchoDriver& driver, Pair& p, Outcome& outcome) {
  while (true) {
    Echo e = driver.step(p, outcome);
    if (e.done) return e;
  }
}

// One set-up, from construction to the first checked echo, timed into
// res.setup_s. False, with the failure recorded, when it did not get there.
bool timed_setup(Service& s, const RunConfig& config, WorkloadResult& res) {
  for (auto& p : s.pairs) p->state = Pair::State::kIdle;
  const std::uint64_t t0 = now_ns();
  Outcome first;
  if (start_service(s)) {
    EchoDriver driver(config.reply_deadline);
    one_echo(driver, *s.pairs[0], first);
  } else {
    first.fail();
  }
  res.setup_s.push_back(seconds_since(t0));
  if (first.failed == 0) return true;
  res.outcome.merge(first);
  res.notes.push_back("xmpp_echo: setup did not reach a checked echo");
  return false;
}

}  // namespace

Outcome xmpp_single_echo(std::size_t body_bytes,
                         std::chrono::milliseconds deadline) {
  Digest digest;
  Service s;
  s.pairs = make_pairs(1, body_bytes, digest);
  Outcome outcome;
  if (!start_service(s)) {
    outcome.fail();
  } else {
    EchoDriver driver(deadline);
    one_echo(driver, *s.pairs[0], outcome);
  }
  stop_service(s);
  return outcome;
}

WorkloadResult run_xmpp_echo(const RunConfig& config) {
  WorkloadResult res;
  pin_to_cpu(kGeneratorCpu);
  res.pin_map =
      "xmpp.net0=cpu0 xmpp.conn=cpu1 xmpp.app0=cpu2 xmpp.net1=cpu3 "
      "generator=cpu1";
  Digest digest;
  Service s;
  s.pairs = make_pairs(config.seed, kChatBytes, digest);
  res.input_digest = digest.hex();

  const int rounds = config.rounds;
  const double share = config.seconds / rounds;
  const std::uint64_t min_samples = min_samples_for(0.99);
  std::vector<Sample> rtts;
  std::vector<Span> windows;
  // Counters and spans of the last round (the only one when traced).
  Counters before, after;
  std::uint64_t gen_switches = 0;
  std::size_t pool_free_min = 0;
  double send_ns = 0, recv_ns = 0, server_ns = 0;
  std::uint64_t traced = 0;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < kSetupBatch; ++i) {
      if (round != 0 || i != 0) stop_service(s);
      if (!timed_setup(s, config, res)) {
        stop_service(s);
        return res;
      }
    }
    const bool last = round + 1 == rounds;
    EchoDriver driver(config.reply_deadline);
    before = sample_counters(*s.rt);
    const std::uint64_t gen_switches0 = thread_voluntary_switches();
    pool_free_min = s.rt->public_pool().size();
    const std::uint64_t start = now_ns();
    double elapsed = 0;
    std::uint64_t iterations = 0;
    // The last round runs on until the whole-run p99 can be reported.
    while (elapsed < share ||
           (last && rtts.size() < min_samples &&
            res.seconds + elapsed < 3 * config.seconds)) {
      for (auto& p : s.pairs) {
        Echo e = driver.step(*p, res.outcome);
        if (!e.done || !e.ok) continue;
        rtts.push_back({e.rtt.end_ns, e.rtt.ns()});
        if (config.trace) {
          send_ns += static_cast<double>(e.client[0].ns() + e.client[2].ns());
          recv_ns += static_cast<double>(e.client[1].ns() + e.client[3].ns());
          server_ns += static_cast<double>(self_time_ns(
              e.rtt, {e.client[0], e.client[1], e.client[2], e.client[3]}));
          ++traced;
        }
      }
      if ((++iterations & 255) == 0) {
        if (config.trace) {
          pool_free_min = std::min(pool_free_min, s.rt->public_pool().size());
        }
        elapsed = seconds_since(start);
      }
    }
    windows.push_back({start, now_ns()});
    res.seconds += static_cast<double>(windows.back().ns()) * 1e-9;
    gen_switches = thread_voluntary_switches() - gen_switches0;
    after = sample_counters(*s.rt);
  }
  res.ops = rtts.size();
  res.quiet = quiet_samples(rtts, windows, kSliceNs);
  res.latency = summarize_samples(rtts);
  res.named = {
      {"xmpp.echo_per_s", res.quiet.ops_per_s, "1/s", res.ops},
      {"xmpp.rtt_p50_us", res.quiet.p50_us, "us", res.latency.count},
      {"xmpp.rtt_p99_us (whole run)", res.latency.p99_us, "us",
       res.latency.count},
  };
  // The instance's counters are written by its worker: stop it first.
  s.rt->stop();

  if (config.trace) {
    auto& layer = res.layer;
    add_counter_layers(before, after, res.ops, gen_switches, layer);
    layer["concurrent.pool.free_min"] = static_cast<double>(pool_free_min);
    const double n = traced == 0 ? 1.0 : static_cast<double>(traced);
    layer["xmpp.client_send_us"] = send_ns / (2 * n) * 1e-3;
    layer["xmpp.client_recv_us"] = recv_ns / (2 * n) * 1e-3;
    layer["xmpp.server_us"] = server_ns / (2 * n) * 1e-3;
    // Every echo of this deployment was routed, the setup's one included.
    const double echoes = static_cast<double>(res.outcome.attempted + 1);
    layer["xmpp.routed_per_op"] =
        static_cast<double>(s.service.instances[0]->messages_routed()) / echoes;
    const double ops = res.ops == 0 ? 1.0 : static_cast<double>(res.ops);
    using ea::core::WorkerHealth;
    layer["xmpp.app_rounds_per_op"] = static_cast<double>(worker_delta(
        before, after, "xmpp.app0", &WorkerHealth::rounds)) / ops;
    layer["net.rounds_per_op"] = static_cast<double>(worker_delta(
        before, after, "xmpp.net1", &WorkerHealth::rounds)) / ops;
    layer["net.dispatches_per_op"] = static_cast<double>(worker_delta(
        before, after, "xmpp.net1", &WorkerHealth::dispatches)) / ops;
  }
  stop_service(s);
  return res;
}

}  // namespace perfbench

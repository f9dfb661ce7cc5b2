// Supervision and self-healing tests (ctest label: supervise).
//
// Covers the failure-containment lifecycle (DESIGN.md §12) without fault
// injection: invoke_contained() converting throws into Failed transitions,
// the SupervisorActor's restart/backoff/quarantine policy machine (driven
// manually, one sweep at a time, so every schedule is deterministic), the
// stall watchdog, node conservation across quarantine, the WRITER's drain
// fairness rotation, a channel link redialling a killed connection, and the
// TCP secure-sum ring computing correct sums end to end, with static and
// dynamic secrets and across a reset hop.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "concurrent/arena.hpp"
#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/backoff.hpp"
#include "core/health.hpp"
#include "core/runtime.hpp"
#include "core/supervisor.hpp"
#include "net/actors.hpp"
#include "net/channel_link.hpp"
#include "net/socket.hpp"
#include "net/socket_table.hpp"
#include "sgxsim/cost_model.hpp"
#include "smc/party_actor.hpp"
#include "smc/sdk_ring.hpp"
#include "util/bytes.hpp"

namespace ea {
namespace {

using namespace std::chrono_literals;

// --- helpers ---------------------------------------------------------------

// An actor whose failure behaviour is scripted from the test thread.
struct FlakyActor : core::Actor {
  using core::Actor::Actor;
  std::atomic<bool> throw_next{false};
  std::atomic<bool> restart_throws{false};
  std::atomic<int> restarted{0};
  std::atomic<int> quarantined{0};

  bool body() override {
    if (throw_next.load(std::memory_order_relaxed)) {
      throw std::runtime_error("boom");
    }
    return true;
  }
  void on_restart() override {
    if (restart_throws.load(std::memory_order_relaxed)) {
      throw std::runtime_error("restart failed");
    }
    restarted.fetch_add(1, std::memory_order_relaxed);
  }
  void on_quarantine() override {
    quarantined.fetch_add(1, std::memory_order_relaxed);
  }
};

// Supervisor options for manual driving: every body() call sweeps, restart
// delays are zero, and the budget is generous unless a test overrides it.
core::SupervisorActor::Options fast_opts() {
  core::SupervisorActor::Options opts;
  opts.sweep_interval_us = 0;
  opts.default_policy.backoff = core::BackoffPolicy{0, 0, 2, 0};
  opts.default_policy.max_restarts = 100;
  opts.default_policy.window_us = 60'000'000;
  return opts;
}

concurrent::Node* pop_within(concurrent::Mbox& box,
                             std::chrono::milliseconds budget) {
  auto deadline = std::chrono::steady_clock::now() + budget;
  while (std::chrono::steady_clock::now() < deadline) {
    if (concurrent::Node* n = box.pop()) return n;
    std::this_thread::sleep_for(1ms);
  }
  return nullptr;
}

class SupervisionTest : public ::testing::Test {
 protected:
  SupervisionTest() {
    sgxsim::cost_model().ecall_cycles = 10;
    sgxsim::cost_model().ocall_cycles = 10;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
  }
  sgxsim::ScopedCostModel scoped_;
};

// --- backoff ---------------------------------------------------------------

TEST(BackoffScheduleTest, DeterministicForPolicyAndSeed) {
  core::BackoffPolicy policy{1000, 100000, 2, 20};
  core::BackoffSchedule a(policy, 42), b(policy, 42);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(a.next_delay_us(), b.next_delay_us()) << "attempt " << i;
  }
  // A different seed produces a different jitter stream (with overwhelming
  // probability over 16 draws).
  core::BackoffSchedule c(policy, 43);
  bool any_diff = false;
  core::BackoffSchedule a2(policy, 42);
  for (int i = 0; i < 16; ++i) {
    any_diff |= a2.next_delay_us() != c.next_delay_us();
  }
  EXPECT_TRUE(any_diff);
}

TEST(BackoffScheduleTest, ZeroJitterIsExactExponentialWithCap) {
  core::BackoffSchedule s(core::BackoffPolicy{100, 750, 3, 0}, 1);
  EXPECT_EQ(s.next_delay_us(), 100u);
  EXPECT_EQ(s.next_delay_us(), 300u);
  EXPECT_EQ(s.next_delay_us(), 750u);  // 900 clipped to the cap
  EXPECT_EQ(s.next_delay_us(), 750u);
  EXPECT_EQ(s.attempts(), 4u);
}

TEST(BackoffScheduleTest, ResetRewindsBaseButNotJitterStream) {
  core::BackoffPolicy policy{100, 10000, 2, 0};
  core::BackoffSchedule s(policy, 7);
  (void)s.next_delay_us();
  (void)s.next_delay_us();
  s.reset();
  EXPECT_EQ(s.attempts(), 0u);
  EXPECT_EQ(s.next_delay_us(), 100u);  // back to the initial delay

  // With jitter, the stream keeps advancing across reset(): the delays
  // after a reset are not a replay of the first ones.
  core::BackoffPolicy jittered{10000, 1000000, 2, 20};
  core::BackoffSchedule j(jittered, 7);
  std::uint64_t first = j.next_delay_us();
  j.reset();
  std::uint64_t again = j.next_delay_us();
  core::BackoffSchedule j2(jittered, 7);
  EXPECT_EQ(first, j2.next_delay_us());
  EXPECT_NE(again, first);
}

// --- containment -----------------------------------------------------------

TEST_F(SupervisionTest, InvokeContainedConvertsThrowIntoFailed) {
  FlakyActor actor("flaky");
  EXPECT_TRUE(core::invoke_contained(actor));
  EXPECT_EQ(actor.lifecycle(), core::ActorState::kRunnable);

  actor.throw_next = true;
  EXPECT_FALSE(core::invoke_contained(actor));
  EXPECT_EQ(actor.lifecycle(), core::ActorState::kFailed);
  EXPECT_EQ(actor.failures(), 1u);
  core::FailureInfo info = actor.last_failure();
  EXPECT_EQ(info.actor, "flaky");
  EXPECT_EQ(info.what, "boom");
  EXPECT_EQ(info.at_invocation, 2u);

  // Failed actors are skipped: no invocation, no further failures.
  std::uint64_t inv = actor.invocations();
  EXPECT_FALSE(core::invoke_contained(actor));
  EXPECT_EQ(actor.invocations(), inv);
  EXPECT_EQ(actor.failures(), 1u);
}

TEST_F(SupervisionTest, ConstructThrowIsContainedPerActor) {
  struct BadConstruct : core::Actor {
    using core::Actor::Actor;
    void construct(core::Runtime&) override {
      throw std::runtime_error("construct exploded");
    }
    bool body() override { return false; }
  };

  core::Runtime rt;
  auto& bad = rt.add_actor(std::make_unique<BadConstruct>("bad"));
  auto& good = rt.add_actor(std::make_unique<FlakyActor>("good"));
  EXPECT_NO_THROW(rt.start());

  EXPECT_EQ(bad.lifecycle(), core::ActorState::kFailed);
  EXPECT_EQ(bad.last_failure().what, "construct exploded");
  EXPECT_EQ(good.lifecycle(), core::ActorState::kRunnable);
  rt.stop();
}

// --- supervisor restart / budget / quarantine -------------------------------

TEST_F(SupervisionTest, SupervisorRestartsFailedActor) {
  core::Runtime rt;
  auto flaky = std::make_unique<FlakyActor>("flaky");
  FlakyActor& actor = static_cast<FlakyActor&>(rt.add_actor(std::move(flaky)));
  auto sup_owned = std::make_unique<core::SupervisorActor>("sup", fast_opts());
  auto& sup =
      static_cast<core::SupervisorActor&>(rt.add_actor(std::move(sup_owned)));
  rt.start();

  actor.throw_next = true;
  EXPECT_FALSE(core::invoke_contained(actor));
  ASSERT_EQ(actor.lifecycle(), core::ActorState::kFailed);
  actor.throw_next = false;

  sup.body();  // schedules the restart (zero backoff)
  sup.body();  // performs it
  EXPECT_EQ(actor.lifecycle(), core::ActorState::kRunnable);
  EXPECT_EQ(actor.restarted.load(), 1);
  EXPECT_EQ(actor.restarts(), 1u);
  EXPECT_EQ(sup.restarts_performed(), 1u);
  EXPECT_EQ(sup.quarantines(), 0u);

  // The healed actor runs again.
  EXPECT_TRUE(core::invoke_contained(actor));
  rt.stop();
}

TEST_F(SupervisionTest, RestartBudgetExhaustionQuarantinesAndEscalates) {
  core::Runtime rt;
  auto& actor = static_cast<FlakyActor&>(
      rt.add_actor(std::make_unique<FlakyActor>("crashloop")));
  auto opts = fast_opts();
  opts.default_policy.max_restarts = 2;
  auto& sup = static_cast<core::SupervisorActor&>(
      rt.add_actor(std::make_unique<core::SupervisorActor>("sup", opts)));
  core::FailureInfo escalated;
  int escalations = 0;
  sup.set_escalation([&](const core::FailureInfo& info) {
    escalated = info;
    ++escalations;
  });
  rt.start();

  actor.throw_next = true;  // fails on every scheduling quantum
  for (int cycle = 0;
       cycle < 10 && actor.lifecycle() != core::ActorState::kQuarantined;
       ++cycle) {
    core::invoke_contained(actor);
    sup.body();  // schedule (or quarantine once the window is full)
    sup.body();  // perform
  }

  EXPECT_EQ(actor.lifecycle(), core::ActorState::kQuarantined);
  EXPECT_EQ(sup.restarts_performed(), 2u);
  EXPECT_EQ(sup.quarantines(), 1u);
  EXPECT_EQ(actor.quarantined.load(), 1);
  EXPECT_EQ(escalations, 1);
  EXPECT_EQ(escalated.actor, "crashloop");
  EXPECT_EQ(escalated.what, "boom");

  // Quarantine is terminal: no more invocations, no more restarts.
  std::uint64_t inv = actor.invocations();
  EXPECT_FALSE(core::invoke_contained(actor));
  EXPECT_EQ(actor.invocations(), inv);
  sup.body();
  sup.body();
  EXPECT_EQ(sup.restarts_performed(), 2u);
  rt.stop();
}

TEST_F(SupervisionTest, ThrowingRestartHookCountsAsFailureAndRetries) {
  core::Runtime rt;
  auto& actor = static_cast<FlakyActor&>(
      rt.add_actor(std::make_unique<FlakyActor>("flaky")));
  auto& sup = static_cast<core::SupervisorActor&>(
      rt.add_actor(std::make_unique<core::SupervisorActor>("sup", fast_opts())));
  rt.start();

  actor.throw_next = true;
  core::invoke_contained(actor);
  actor.throw_next = false;
  actor.restart_throws = true;  // the first restart attempt itself fails

  sup.body();  // schedule
  sup.body();  // perform -> on_restart throws -> back to Failed
  EXPECT_EQ(actor.lifecycle(), core::ActorState::kFailed);
  EXPECT_EQ(sup.restart_failures(), 1u);
  EXPECT_EQ(sup.restarts_performed(), 0u);
  EXPECT_EQ(actor.last_failure().what, "restart failed");

  actor.restart_throws = false;
  sup.body();  // re-schedule
  sup.body();  // perform, succeeds this time
  EXPECT_EQ(actor.lifecycle(), core::ActorState::kRunnable);
  EXPECT_EQ(sup.restarts_performed(), 1u);
  EXPECT_EQ(actor.restarted.load(), 1);
  rt.stop();
}

TEST_F(SupervisionTest, IgnoredActorIsNeverTouched) {
  core::Runtime rt;
  auto& actor = static_cast<FlakyActor&>(
      rt.add_actor(std::make_unique<FlakyActor>("unmanaged")));
  auto& sup = static_cast<core::SupervisorActor&>(
      rt.add_actor(std::make_unique<core::SupervisorActor>("sup", fast_opts())));
  sup.ignore("unmanaged");
  rt.start();

  actor.throw_next = true;
  core::invoke_contained(actor);
  for (int i = 0; i < 6; ++i) sup.body();
  EXPECT_EQ(actor.lifecycle(), core::ActorState::kFailed);
  EXPECT_EQ(sup.restarts_performed(), 0u);
  EXPECT_EQ(sup.quarantines(), 0u);
  rt.stop();
}

// --- stall watchdog ---------------------------------------------------------

TEST_F(SupervisionTest, WatchdogFlagsOnlyActorsWithStuckPendingWork) {
  struct Pending : core::Actor {
    using core::Actor::Actor;
    std::atomic<bool> pending{true};
    bool body() override { return false; }
    bool has_pending_work() const override {
      return pending.load(std::memory_order_relaxed);
    }
  };

  core::Runtime rt;
  auto& stuck = static_cast<Pending&>(
      rt.add_actor(std::make_unique<Pending>("stuck")));
  auto& busy = static_cast<Pending&>(
      rt.add_actor(std::make_unique<Pending>("busy")));
  auto& idle = static_cast<Pending&>(
      rt.add_actor(std::make_unique<Pending>("idle")));
  idle.pending = false;
  auto opts = fast_opts();
  opts.default_policy.stall_rounds = 3;
  auto& sup = static_cast<core::SupervisorActor&>(
      rt.add_actor(std::make_unique<core::SupervisorActor>("sup", opts)));
  rt.start();

  // `busy` keeps progressing between sweeps; `stuck` never moves despite
  // pending work; `idle` never moves but has an empty inbox.
  for (int i = 0; i < 6; ++i) {
    core::invoke_contained(busy);
    sup.body();
  }
  EXPECT_TRUE(stuck.stalled());
  EXPECT_FALSE(busy.stalled());
  EXPECT_FALSE(idle.stalled());
  EXPECT_EQ(sup.stalls_flagged(), 1u);

  // One quantum of progress clears the flag on the next sweep.
  core::invoke_contained(stuck);
  sup.body();
  EXPECT_FALSE(stuck.stalled());
  rt.stop();
}

// --- node conservation across quarantine ------------------------------------

TEST_F(SupervisionTest, QuarantineDrainsPrivatelyHeldNodesBackToPools) {
  struct Hoarder : core::Actor {
    using core::Actor::Actor;
    concurrent::Mbox box;
    bool body() override { throw std::runtime_error("boom"); }
    bool has_pending_work() const override { return !box.empty(); }
    void on_quarantine() override {
      while (concurrent::Node* n = box.pop()) concurrent::NodeLease(n).reset();
    }
  };

  core::Runtime rt;
  auto& hoarder = static_cast<Hoarder&>(
      rt.add_actor(std::make_unique<Hoarder>("hoarder")));
  auto opts = fast_opts();
  opts.default_policy.max_restarts = 0;  // quarantine on the first failure
  auto& sup = static_cast<core::SupervisorActor&>(
      rt.add_actor(std::make_unique<core::SupervisorActor>("sup", opts)));
  rt.start();

  concurrent::Pool& pool = rt.public_pool();
  std::size_t before = pool.size();
  for (int i = 0; i < 5; ++i) {
    concurrent::Node* n = pool.get();
    ASSERT_NE(n, nullptr);
    hoarder.box.push(n);
  }
  ASSERT_EQ(pool.size(), before - 5);

  core::invoke_contained(hoarder);  // fails
  sup.body();                       // budget 0: immediate quarantine
  EXPECT_EQ(hoarder.lifecycle(), core::ActorState::kQuarantined);
  EXPECT_EQ(pool.size(), before) << "quarantine must return every node";
  rt.stop();
}

TEST_F(SupervisionTest, WriterQuarantineParksQueuedNodes) {
  concurrent::NodeArena arena(8, 512);
  concurrent::Pool pool;
  pool.adopt(arena);
  auto table = std::make_shared<net::SocketTable>();
  net::WriterActor writer("writer", table);

  for (int i = 0; i < 3; ++i) {
    concurrent::Node* n = pool.get();
    ASSERT_NE(n, nullptr);
    n->fill("queued");
    n->tag = 7;  // no such socket; the nodes just sit in the input mbox
    writer.input().push(n);
  }
  EXPECT_TRUE(writer.has_pending_work());
  writer.on_quarantine();
  EXPECT_EQ(pool.size(), arena.count());
  EXPECT_FALSE(writer.has_pending_work());
}

// --- writer drain fairness ---------------------------------------------------

TEST_F(SupervisionTest, WriterServicesLaterSocketsWhileEarlierOneIsBlocked) {
  concurrent::NodeArena arena(8, 64 * 1024);
  concurrent::Pool pool;
  pool.adopt(arena);
  auto table = std::make_shared<net::SocketTable>();
  net::WriterActor writer("writer", table);

  auto make_pair = [&](net::Socket& peer) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
    peer = net::Socket(fds[1]);
    return table->add(net::Socket(fds[0]));
  };

  net::Socket peer_a, peer_b;
  net::SocketId a = make_pair(peer_a);
  net::SocketId b = make_pair(peer_b);
  ASSERT_LT(a, b);
  // Socket `a` gets a tiny kernel send buffer and more data than fits, so
  // its queue blocks mid-node with work still parked behind it.
  table->with(a, [](net::Socket& s) {
    int small = 4608;
    ::setsockopt(s.fd(), SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  });

  concurrent::Node* big = pool.get();
  ASSERT_NE(big, nullptr);
  big->fill(std::string(60 * 1024, 'A'));
  big->tag = static_cast<std::uint64_t>(a);
  writer.input().push(big);

  concurrent::Node* small = pool.get();
  ASSERT_NE(small, nullptr);
  small->fill("b must not starve");
  small->tag = static_cast<std::uint64_t>(b);
  writer.input().push(small);

  // One round: `a` fills its kernel buffer and parks; `b` must still be
  // drained in the same round (the rotation may not stop at the first
  // blocked socket).
  writer.body();
  util::Bytes buf(1024, 0);
  long n = peer_b.read_nb(buf);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf.data()),
                        static_cast<std::size_t>(n)),
            "b must not starve");
  EXPECT_LT(pool.size(), arena.count()) << "expected a parked node on `a`";

  // Once the peer drains, later rounds finish `a` too and return its node.
  std::size_t drained = 0;
  for (int round = 0; round < 300 && drained < 60 * 1024; ++round) {
    writer.body();
    long got;
    while ((got = peer_a.read_nb(buf)) > 0) {
      drained += static_cast<std::size_t>(got);
    }
  }
  EXPECT_EQ(drained, 60u * 1024u);
  writer.on_quarantine();
  EXPECT_EQ(pool.size(), arena.count());
}

// --- health snapshot ---------------------------------------------------------

TEST_F(SupervisionTest, HealthSnapshotReflectsLifecycleAndFailures) {
  core::Runtime rt;
  auto& actor = static_cast<FlakyActor&>(
      rt.add_actor(std::make_unique<FlakyActor>("flaky")));
  rt.add_actor(std::make_unique<FlakyActor>("healthy"));
  rt.add_worker("w0", {}, {"healthy"});
  rt.start();

  actor.throw_next = true;
  core::invoke_contained(actor);

  core::HealthSnapshot snap = rt.health();
  const core::ActorHealth* h = snap.actor("flaky");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->state, core::ActorState::kFailed);
  EXPECT_EQ(h->failures, 1u);
  EXPECT_EQ(h->last_error, "boom");
  EXPECT_EQ(snap.count_in_state(core::ActorState::kFailed), 1u);
  EXPECT_EQ(snap.count_in_state(core::ActorState::kQuarantined), 0u);
  EXPECT_EQ(snap.pool.capacity, core::RuntimeOptions{}.pool_nodes);
  EXPECT_EQ(snap.actor("no-such-actor"), nullptr);

  // Per-worker scheduler counters travel in the snapshot (and its string
  // form) in both modes; under the default static scheduler the run queues
  // are unused, so queue_depth and steals stay at zero.
  ASSERT_EQ(snap.workers.size(), 1u);
  const core::WorkerHealth* w = snap.worker("w0");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->steals, 0u);
  EXPECT_EQ(w->queue_depth, 0u);
  EXPECT_GE(w->dispatches, w->rounds);  // one dispatch per actor per round
  EXPECT_EQ(snap.worker("no-such-worker"), nullptr);
  const std::string text = snap.to_string();
  EXPECT_NE(text.find("worker w0"), std::string::npos);
  EXPECT_NE(text.find("queue_depth"), std::string::npos);
  EXPECT_NE(text.find("steals"), std::string::npos);
  rt.stop();
}

// --- channel link redial ------------------------------------------------------

TEST_F(SupervisionTest, ChannelLinkRedialsAfterPeerCloses) {
  // Hand-driven, so the test reads the link's sockets between rounds.
  core::RuntimeOptions options;
  options.pool_nodes = 4096;
  options.node_payload_bytes = 2048;
  core::Runtime rt(options);
  net::NetSubsystem net = net::install_networking(rt, "net.sys");
  core::Channel& channel = rt.channel("carried");
  core::ChannelEnd* a = channel.connect(sgxsim::kUntrusted);
  core::ChannelEnd* b = channel.connect(sgxsim::kUntrusted);
  net::carry_channels(rt, {&channel}, net);
  for (const auto& actor : rt.actors()) actor->construct(rt);
  auto* link =
      dynamic_cast<net::ChannelLink*>(rt.find_actor("net.link.carried"));
  ASSERT_NE(link, nullptr);
  auto pump = [&] {
    for (const auto& actor : rt.actors()) core::invoke_contained(*actor);
  };
  auto pump_until = [&](auto done, const char* what) {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (!done() && std::chrono::steady_clock::now() < deadline) pump();
    ASSERT_TRUE(done()) << what;
  };
  // Each side sends `round`, and each receives the other's; a copy of the
  // previous round's frame, written again on a new connection, may come
  // first (a plain channel has no replay guard).
  auto exchange = [&](const std::string& round, const std::string& previous) {
    ASSERT_TRUE(a->send(std::string_view("a" + round)));
    ASSERT_TRUE(b->send(std::string_view("b" + round)));
    bool at_a = false, at_b = false;
    auto take = [&](core::ChannelEnd& end, const std::string& want,
                    const std::string& stale, bool& got) {
      while (concurrent::NodeLease frame = end.recv()) {
        const std::string text(frame->view());
        if (text == want) {
          got = true;
        } else {
          EXPECT_EQ(text, stale) << "round " << round;
        }
      }
    };
    pump_until(
        [&] {
          take(*a, "b" + round, "b" + previous, at_a);
          take(*b, "a" + round, "a" + previous, at_b);
          return at_a && at_b;
        },
        "a frame was lost");
  };

  // First connection: the link dials its listener, which accepts.
  pump_until([&] { return link->socket(0) >= 0 && link->socket(1) >= 0; },
             "the link never connected");
  exchange("1", "");
  const net::SocketId dialled = link->socket(0);

  // The peer closes: the READER reports the dialled socket's EOF, and the
  // link closes it and redials once.
  net.table->close(link->socket(1));
  pump_until(
      [&] {
        return link->socket(0) >= 0 && link->socket(0) != dialled &&
               link->socket(1) >= 0;
      },
      "the link never redialled");
  exchange("2", "1");
  const net::SocketId redialled = link->socket(0);
  for (int i = 0; i < 50; ++i) pump();
  EXPECT_EQ(link->socket(0), redialled) << "one close, two redials";
  EXPECT_EQ(net.table->fd(dialled), -1) << "the dead socket stayed open";
  EXPECT_EQ(net.table->size(), 3u);  // the listener and one connection
}

// --- TCP secure-sum ring ------------------------------------------------------

// The sum of the parties' initial secrets: every static round's result.
smc::Vec initial_sum(const smc::SmcConfig& config) {
  smc::Vec sum(config.dim, 0);
  for (int i = 0; i < config.parties; ++i) {
    smc::add_in_place(sum, smc::initial_secret(i, config.dim));
  }
  return sum;
}

// Runs `rounds` sequential requests through a started ring: each returns
// exactly one result, equal to the next of `expected()`.
template <typename Expected>
void expect_sums(core::Runtime& rt, const smc::SmcDeployment& dep, int rounds,
                 Expected expected, const std::string& what) {
  for (int round = 0; round < rounds; ++round) {
    concurrent::Node* req = rt.public_pool().get();
    ASSERT_NE(req, nullptr);
    req->size = 0;
    dep.requests->push(req);

    concurrent::NodeLease result(pop_within(*dep.results, 20'000ms));
    ASSERT_TRUE(result) << what << ", round " << round << ": no result";
    EXPECT_EQ(smc::deserialize(result->data()), expected())
        << what << ", round " << round;
  }
  std::this_thread::sleep_for(50ms);
  EXPECT_TRUE(dep.results->empty()) << what << ": a request had two results";
}

TEST_F(SupervisionTest, NetRingComputesCorrectSumsOverTcp) {
  // At 2 parties both links join the same enclave pair; at dim 1,000 a
  // mask spans 8 draw chunks.
  for (auto [parties, dim] : {std::pair<int, std::size_t>{3, 8},
                              std::pair<int, std::size_t>{2, 8},
                              std::pair<int, std::size_t>{3, 1000}}) {
    core::RuntimeOptions options;
    options.pool_nodes = 8192;
    options.node_payload_bytes = 8192;
    core::Runtime rt(options);
    net::NetSubsystem net = net::install_networking(rt, "net.sys");
    smc::SmcConfig config;
    config.parties = parties;
    config.dim = dim;
    smc::SmcDeployment dep = smc::install_net_ring(rt, config, net);
    rt.start();
    const smc::Vec sum = initial_sum(config);
    expect_sums(rt, dep, 3, [&] { return sum; },
                std::to_string(parties) + " parties, dim " +
                    std::to_string(dim));
    rt.stop();
  }
}

TEST_F(SupervisionTest, NetRingComputesDynamicSumsOverTcp) {
  // Each party recomputes its secret after every round, so a hop opened
  // twice would corrupt every later sum: the replay guard must drop every
  // resent copy.
  for (int parties : {2, 3}) {
    for (std::size_t dim : {std::size_t{8}, std::size_t{1000}}) {
      core::RuntimeOptions options;
      options.pool_nodes = 8192;
      options.node_payload_bytes = 8192;
      core::Runtime rt(options);
      net::NetSubsystem net = net::install_networking(rt, "net.sys");
      smc::SmcConfig config;
      config.parties = parties;
      config.dim = dim;
      config.dynamic = true;
      smc::SmcDeployment dep = smc::install_net_ring(rt, config, net);
      rt.start();
      smc::SdkSecureSum reference(config);
      expect_sums(rt, dep, 5, [&] { return reference.run_once(); },
                  std::to_string(parties) + " parties, dim " +
                      std::to_string(dim));
      rt.stop();
    }
  }
}

TEST_F(SupervisionTest, NetRingKeepsARoundsMaskThroughRetransmitAndRestart) {
  // Hand-driven: no worker runs, so the test holds a round wherever it
  // likes. Dim 1,000 spans 8 mask chunks.
  core::RuntimeOptions options;
  options.pool_nodes = 1024;
  options.node_payload_bytes = 8192;
  core::Runtime rt(options);
  net::NetSubsystem net = net::install_networking(rt, "net.sys");
  smc::SmcConfig config;
  config.parties = 3;
  config.dim = 1000;
  smc::SmcDeployment dep = smc::install_net_ring(rt, config, net);
  for (const auto& actor : rt.actors()) {
    core::run_in_placement(*actor, [&] { actor->construct(rt); });
  }
  core::Actor& p0 = *rt.find_actor("smc.net.p0");
  core::Actor* held = nullptr;  // an actor whose body does not run
  auto pump = [&] {
    for (const auto& actor : rt.actors()) {
      if (actor.get() == held) continue;
      core::run_in_placement(*actor, [&] { core::invoke_contained(*actor); });
    }
  };
  auto pump_until = [&](auto done, const char* what) {
    const auto deadline = std::chrono::steady_clock::now() + 20s;
    while (!done() && std::chrono::steady_clock::now() < deadline) pump();
    ASSERT_TRUE(done()) << what;
  };
  const smc::Vec expected = initial_sum(config);
  auto request = [&] {
    concurrent::Node* req = rt.public_pool().get();
    ASSERT_NE(req, nullptr);
    req->size = 0;
    dep.requests->push(req);
  };
  auto await_sum = [&](const char* what) {
    pump_until([&] { return !dep.results->empty(); }, what);
    concurrent::NodeLease result(dep.results->pop());
    EXPECT_EQ(smc::deserialize(result->data()), expected) << what;
    for (int i = 0; i < 200; ++i) pump();
    EXPECT_TRUE(dep.results->empty()) << what << ": two results";
  };
  auto hop_auth_failures = [&] {
    for (const core::ChannelHealth& ch : rt.health().channels) {
      if (ch.name == "smc.ring.0") return ch.auth_failures;
    }
    return std::uint64_t{~0ull};
  };

  // A plain round dials and accepts every link.
  request();
  await_sum("first round");
  EXPECT_EQ(hop_auth_failures(), 0u);

  // The hop's connection is reset while party 1 holds the token. The link
  // writes the token again on the new connection, and party 1's replay
  // guard drops that copy: the round completes once, under its one mask.
  auto* link =
      dynamic_cast<net::ChannelLink*>(rt.find_actor("net.link.smc.ring.0"));
  ASSERT_NE(link, nullptr);
  held = rt.find_actor("smc.net.p1");
  request();
  pump_until([&] { return link->arrivals(0).size() == 1; },
             "the token never reached party 1");
  const net::SocketId dialled = link->socket(0);
  net.table->close(link->socket(1));
  pump_until([&] { return link->arrivals(0).size() == 2; },
             "the link never wrote the token again");
  EXPECT_NE(link->socket(0), dialled) << "the hop was not re-dialled";
  held = nullptr;
  await_sum("round across a reset");
  EXPECT_EQ(hop_auth_failures(), 1u) << "the copy was not dropped once";

  // Party 0 restarts with its round in flight and the next mask part
  // drawn; the round completes under the mask it started with.
  request();
  core::run_in_placement(p0, [&] { core::invoke_contained(p0); });
  core::run_in_placement(p0, [&] { core::invoke_contained(p0); });
  core::run_in_placement(p0, [&] { p0.on_restart(); });
  await_sum("round across a restart");
}

}  // namespace
}  // namespace ea

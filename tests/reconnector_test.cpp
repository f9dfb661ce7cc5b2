// Reconnector edge cases (ctest label: net).
//
// Each successful open publishes exactly one Up note and counts once in
// opens(); a failed or stale open publishes none and counts in neither
// opens() nor reconnects(). Owners act on every Up note (a channel link
// writes its last frame again on the new socket), so a duplicate note or
// one for a stale socket would mislead them. These tests drive the OPENER
// and RECONNECTOR bodies by hand (no worker threads), making the races
// deterministic:
//
//   * a stale OpenReply — the redial already timed out and a fresh attempt
//     is in flight — must not count as a second open or leak its socket;
//   * quarantine with status/control traffic queued must conserve nodes and
//     resume cleanly: on_quarantine writes off the opens whose replies it
//     dropped, and the redial after the restart produces exactly one Up
//     note;
//   * a restart with an open in flight keeps it: the queued reply is taken,
//     nothing is written off, and the peer's socket stays open;
//   * max_attempts exhaustion publishes a terminal gave_up note and the
//     connection never redials again.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <optional>
#include <span>
#include <thread>

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "core/backoff.hpp"
#include "core/health.hpp"
#include "core/runtime.hpp"
#include "net/actors.hpp"
#include "net/reconnector.hpp"
#include "net/socket.hpp"
#include "net/socket_table.hpp"
#include "sgxsim/cost_model.hpp"

namespace ea {
namespace {

using namespace std::chrono_literals;

class ReconnectorTest : public ::testing::Test {
 protected:
  ReconnectorTest() {
    sgxsim::cost_model().ecall_cycles = 0;
    sgxsim::cost_model().ocall_cycles = 0;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
  }
  sgxsim::ScopedCostModel scoped_;
};

// Hand-driven deployment: networking + a reconnector owned by the test (not
// the runtime), so every body() call below is explicit and single-threaded.
struct Rig {
  core::Runtime rt;
  net::NetSubsystem net;
  net::ReconnectorActor recon;
  concurrent::Mbox data;
  concurrent::Mbox status;
  net::Socket listener;
  std::uint16_t port = 0;

  Rig() : net(net::install_networking(rt, "net.sys")),
          recon("recon.test", net, rt.public_pool()) {
    listener = net::Socket::listen_on(0);
    EXPECT_TRUE(listener.valid());
    port = listener.local_port();
  }

  std::uint64_t add(std::uint32_t max_attempts, std::uint16_t to_port) {
    net::ConnSpec spec;
    std::memcpy(spec.host, "127.0.0.1", sizeof("127.0.0.1"));
    spec.port = to_port;
    spec.data = &data;
    spec.status = &status;
    spec.backoff = core::BackoffPolicy{0, 0, 2, 0};  // retry immediately
    spec.max_attempts = max_attempts;
    return recon.add_connection(spec);
  }

  // Pumps OPENER + RECONNECTOR until a status note arrives (or times out).
  bool pump_until_status(net::ConnStatus& out,
                         std::chrono::milliseconds budget) {
    auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
      net.opener->body();
      recon.body();
      if (concurrent::Node* n = status.pop()) {
        concurrent::NodeLease lease(n);
        return net::read_struct(*n, out);
      }
      std::this_thread::sleep_for(1ms);
    }
    return false;
  }
};

TEST_F(ReconnectorTest, StaleReplyAfterRedialIsNotASecondOpen) {
  Rig rig;
  rig.add(0, rig.port);
  rig.recon.construct(rig.rt);  // issues open #1 — left unanswered

  // Let attempt #1 age past the open deadline WITHOUT running the OPENER:
  // the reconnector writes it off and immediately redials (attempt #2).
  // Only then does the OPENER run, answering BOTH queued requests — so the
  // reply for the timed-out attempt races the in-flight redial.
  std::this_thread::sleep_for(250ms);
  rig.recon.body();  // timeout -> fail_attempt -> kBackoff (due now)
  EXPECT_EQ(rig.recon.open_failures(), 1u);
  rig.recon.body();  // redial: open #2 queued behind open #1

  net::ConnStatus st{};
  ASSERT_TRUE(rig.pump_until_status(st, 5000ms));
  EXPECT_EQ(st.up, 1);
  EXPECT_EQ(rig.recon.opens(), 1u);
  EXPECT_EQ(rig.recon.reconnects(), 0u);

  // Drain the second (stale) reply: it must be swallowed — its socket
  // closed, no second Up note, no second open counted.
  for (int i = 0; i < 20; ++i) {
    rig.net.opener->body();
    rig.recon.body();
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(rig.recon.opens(), 1u);
  EXPECT_EQ(rig.status.pop(), nullptr) << "stale reply published a status";
  // The stale socket was closed, not leaked: only the Up one remains.
  EXPECT_EQ(rig.net.table->size(), 1u);
  EXPECT_NE(rig.net.table->fd(st.socket), -1);

  // A genuine down + redial afterwards is exactly one more open, and one
  // Up note.
  concurrent::Node* note = rig.rt.public_pool().get();
  ASSERT_NE(note, nullptr);
  note->tag = 0;
  note->size = 0;
  rig.recon.control().push(note);
  rig.recon.body();  // down -> closer request + backoff
  rig.net.closer->body();
  ASSERT_TRUE(rig.pump_until_status(st, 5000ms));
  EXPECT_EQ(st.up, 1);
  EXPECT_EQ(rig.recon.opens(), 2u);
  EXPECT_EQ(rig.recon.reconnects(), 1u);
  EXPECT_EQ(rig.status.pop(), nullptr) << "one open published two notes";
}

TEST_F(ReconnectorTest, QuarantineConservesNodesAndRestartRedials) {
  Rig rig;
  rig.add(0, rig.port);
  rig.recon.construct(rig.rt);  // open #1 in flight -> state kOpening

  // Queue control/reply traffic the quarantine must release: a down note
  // and the OPENER's reply both sit unprocessed.
  concurrent::Node* note = rig.rt.public_pool().get();
  ASSERT_NE(note, nullptr);
  note->tag = 0;
  note->size = 0;
  rig.recon.control().push(note);
  rig.net.opener->body();  // reply for open #1 lands in replies_

  core::HealthSnapshot before = rig.rt.health();
  rig.recon.on_quarantine();
  core::HealthSnapshot after = rig.rt.health();
  EXPECT_EQ(after.pool.free, before.pool.free + 2)
      << "quarantine leaked queued control/reply nodes";
  EXPECT_EQ(rig.status.pop(), nullptr)
      << "a status note was published during quarantine";

  // Restart: the mid-open attempt (its reply was just drained) was written
  // off, the redial goes out, and exactly one Up note arrives: the first
  // open, not a reconnect.
  rig.recon.on_restart();
  EXPECT_GE(rig.recon.open_failures(), 1u);
  net::ConnStatus st{};
  ASSERT_TRUE(rig.pump_until_status(st, 5000ms));
  EXPECT_EQ(st.up, 1);
  EXPECT_EQ(st.gave_up, 0);
  EXPECT_EQ(rig.recon.opens(), 1u);
  EXPECT_EQ(rig.recon.reconnects(), 0u);
  EXPECT_EQ(rig.status.pop(), nullptr) << "one open published two notes";
}

TEST_F(ReconnectorTest, RestartKeepsTheOpenInFlight) {
  Rig rig;
  rig.add(0, rig.port);
  rig.recon.construct(rig.rt);  // open #1 in flight -> state kOpening
  rig.net.opener->body();       // its reply lands in replies_

  // A contained fault strikes before body() runs, so the queued reply is
  // intact: the restart must not write the open off.
  rig.recon.on_restart();
  net::ConnStatus st{};
  ASSERT_TRUE(rig.pump_until_status(st, 5000ms));
  EXPECT_EQ(st.up, 1);
  EXPECT_EQ(rig.recon.open_failures(), 0u) << "the restart wrote off the open";
  EXPECT_EQ(rig.recon.opens(), 1u);
  for (int i = 0; i < 20; ++i) {
    rig.net.opener->body();
    rig.recon.body();
    rig.net.closer->body();
  }
  EXPECT_EQ(rig.status.pop(), nullptr) << "one open published two notes";

  // The peer accepted exactly one connection, and it is still open: a read
  // finds no data rather than an EOF.
  std::optional<net::Socket> accepted;
  for (int i = 0; i < 1000 && !accepted.has_value(); ++i) {
    accepted = rig.listener.accept_nb();
    if (!accepted.has_value()) std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(accepted.has_value());
  std::uint8_t byte = 0;
  EXPECT_EQ(accepted->read_nb(std::span<std::uint8_t>(&byte, 1)), 0)
      << "the connected socket was closed as stale";
  EXPECT_FALSE(rig.listener.accept_nb().has_value())
      << "the restart redialled a second connection";
}

TEST_F(ReconnectorTest, MaxAttemptsPublishesTerminalGaveUpStatus) {
  Rig rig;
  // Port 1 on loopback: connects are refused immediately.
  rig.add(2, 1);
  rig.recon.construct(rig.rt);

  net::ConnStatus st{};
  ASSERT_TRUE(rig.pump_until_status(st, 5000ms));
  EXPECT_EQ(st.up, 0);
  EXPECT_EQ(st.gave_up, 1);
  EXPECT_EQ(st.socket, -1);
  EXPECT_EQ(rig.recon.opens(), 0u) << "a failed connection counted as open";
  EXPECT_EQ(rig.recon.reconnects(), 0u);
  EXPECT_EQ(rig.recon.gave_up(), 1u);
  EXPECT_EQ(rig.recon.open_failures(), 2u);

  // Terminal: no further redial activity, ever.
  for (int i = 0; i < 20; ++i) {
    rig.net.opener->body();
    rig.recon.body();
  }
  EXPECT_EQ(rig.recon.opens(), 0u);
  EXPECT_EQ(rig.recon.open_failures(), 2u);
  EXPECT_EQ(rig.status.pop(), nullptr);
}

}  // namespace
}  // namespace ea

// Live XMPP migration soak (ctest labels: fault, migrate, supervise;
// EA_FAILPOINTS builds only).
//
// The ISSUE-10 demo, end to end: a single-instance XMPP echo service under
// the supervision fault storm has its protocol eactor live-migrated between
// enclaves mid-conversation. Acked-message accounting is the oracle — alice
// resends every chat until its echo returns, so a lost in-flight stanza
// would surface as a hung resend loop, never as silent loss.
//
//   * the clean run bounces the actor across enclaves while traffic flows
//     and loses no acknowledged message;
//   * the faulted run injects migrate.transfer.drop into the first attempt:
//     rollback restores the source from the exported bundle, quarantines
//     only the (source, target) route, and the service keeps echoing — a
//     later migration over a clean route still succeeds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "core/health.hpp"
#include "core/migration.hpp"
#include "core/runtime.hpp"
#include "core/supervisor.hpp"
#include "sgxsim/cost_model.hpp"
#include "util/failpoint.hpp"
#include "xmpp/client.hpp"
#include "xmpp/server.hpp"

namespace fp = ea::util::failpoint;

namespace ea {
namespace {

using namespace std::chrono_literals;

core::SupervisorActor::Options storm_opts() {
  core::SupervisorActor::Options opts;
  opts.sweep_interval_us = 200;
  opts.default_policy.backoff = core::BackoffPolicy{100, 2000, 2, 20};
  opts.default_policy.max_restarts = 1'000'000;
  opts.default_policy.window_us = 10'000'000;
  return opts;
}

class MigrationSoakTest : public ::testing::Test {
 protected:
  MigrationSoakTest() {
    sgxsim::cost_model().ecall_cycles = 10;
    sgxsim::cost_model().ocall_cycles = 10;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
    fp::clear_all();
    fp::reset_counters();
  }
  ~MigrationSoakTest() override { fp::clear_all(); }
  sgxsim::ScopedCostModel scoped_;
};

// Single-instance trusted XMPP deployment under the stealing scheduler
// (live migration needs per-dispatch placement reads), with two spare
// enclaves created up front as migration targets.
struct SoakRig {
  core::Runtime rt;
  xmpp::XmppService service;
  core::SupervisorActor* sup = nullptr;
  core::MigrationCoordinator coordinator;
  sgxsim::Enclave* home = nullptr;
  sgxsim::Enclave* spare1 = nullptr;
  sgxsim::Enclave* spare2 = nullptr;

  SoakRig() : rt(options()), coordinator(rt) {
    xmpp::XmppServiceConfig config;
    config.instances = 1;
    config.trusted = true;
    service = xmpp::install_xmpp_service(rt, config);
    sup = &core::install_supervisor(rt, storm_opts());
    home = &rt.enclave("xmpp.e0");  // where install placed xmpp.i1
    spare1 = &rt.enclave("xmpp.spare1");
    spare2 = &rt.enclave("xmpp.spare2");
  }

  static core::RuntimeOptions options() {
    core::RuntimeOptions o;
    o.pool_nodes = 8192;
    o.node_payload_bytes = 2048;
    o.sched = core::SchedMode::kSteal;
    return o;
  }

  // Retries around kBusy: under the body-throw storm the actor may be
  // mid-restart exactly when we try to park it.
  core::MigrateResult migrate_with_retry(sgxsim::Enclave& target) {
    core::MigrateResult res = core::MigrateResult::kBusy;
    for (int attempt = 0; attempt < 200; ++attempt) {
      res = coordinator.migrate(*service.instances[0], target);
      if (res != core::MigrateResult::kBusy) break;
      std::this_thread::sleep_for(2ms);
    }
    return res;
  }
};

// Runs the alice↔bob echo exchange, invoking `mid_traffic(i)` after each
// message lands. Returns the number of acknowledged round trips.
template <typename MidTraffic>
int run_echo_soak(SoakRig& rig, int messages, MidTraffic mid_traffic) {
  xmpp::ClientReconnectPolicy reconnect;
  reconnect.max_attempts = 30;
  xmpp::Client alice, bob;
  alice.enable_reconnect(reconnect);
  bob.enable_reconnect(reconnect);
  EXPECT_TRUE(alice.connect(rig.service.port, "alice"));
  EXPECT_TRUE(bob.connect(rig.service.port, "bob"));

  std::atomic<bool> stop{false};
  std::thread echo([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto msg = bob.recv(50);
      if (msg.has_value() && msg->kind == "chat" && msg->decrypt_ok) {
        for (int r = 0; r < 40 && !bob.send_chat("alice", msg->body); ++r) {
          std::this_thread::sleep_for(5ms);
        }
      }
    }
  });

  auto deadline = std::chrono::steady_clock::now() + 120s;
  int delivered = 0;
  for (int i = 0; i < messages; ++i) {
    std::string payload = "mig-" + std::to_string(i);
    bool acked = false;
    while (!acked && std::chrono::steady_clock::now() < deadline) {
      alice.send_chat("bob", payload);
      auto resend_at = std::chrono::steady_clock::now() + 300ms;
      while (!acked && std::chrono::steady_clock::now() < resend_at) {
        auto msg = alice.recv(50);
        if (msg.has_value() && msg->kind == "chat" && msg->body == payload) {
          acked = true;
        }
      }
    }
    if (acked) ++delivered;
    mid_traffic(i);
  }
  stop = true;
  echo.join();
  return delivered;
}

TEST_F(MigrationSoakTest, XmppActorMigratesMidTrafficWithZeroAckedLoss) {
  SoakRig rig;
  ASSERT_TRUE(fp::set("actor.body.throw", "1%return"));
  rig.rt.start();

  // Bounce xmpp.i1 between its home enclave and a spare every few acked
  // messages, while the conversation keeps flowing.
  constexpr int kMessages = 25;
  int moves = 0;
  int delivered = run_echo_soak(rig, kMessages, [&](int i) {
    if (i % 5 != 2) return;
    sgxsim::Enclave& target = (moves % 2 == 0) ? *rig.spare1 : *rig.home;
    if (rig.migrate_with_retry(target) == core::MigrateResult::kOk) ++moves;
  });

  EXPECT_EQ(delivered, kMessages) << "an acknowledged round trip was lost";
  EXPECT_GE(moves, 2) << "the actor never actually migrated mid-traffic";
  core::MigrationStats stats = rig.coordinator.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(moves));
  EXPECT_EQ(rig.coordinator.pause_hist().count(),
            static_cast<std::uint64_t>(moves));

  fp::clear_all();
  std::this_thread::sleep_for(200ms);
  core::HealthSnapshot snap = rig.rt.health();
  EXPECT_EQ(snap.count_in_state(core::ActorState::kQuarantined), 0u);
  rig.rt.stop();
}

TEST_F(MigrationSoakTest, TransferDropRollsBackAndServiceKeepsEchoing) {
  SoakRig rig;
  ASSERT_TRUE(fp::set("actor.body.throw", "1%return"));
  rig.rt.start();

  constexpr int kMessages = 20;
  bool drop_done = false;
  bool recovered_move_done = false;
  int delivered = run_echo_soak(rig, kMessages, [&](int i) {
    if (i == 4) {
      // First migration attempt loses the bundle in flight: rollback must
      // restore the source copy and quarantine only this route.
      ASSERT_TRUE(fp::set("migrate.transfer.drop", "once"));
      core::MigrateResult res = rig.migrate_with_retry(*rig.spare1);
      EXPECT_EQ(res, core::MigrateResult::kTransferFailed);
      EXPECT_TRUE(rig.coordinator.route_quarantined(rig.home->id(),
                                                    rig.spare1->id()));
      EXPECT_EQ(rig.coordinator.migrate(*rig.service.instances[0],
                                        *rig.spare1),
                core::MigrateResult::kRouteQuarantined);
      drop_done = true;
    } else if (i == 12 && drop_done) {
      // The ACTOR was never quarantined: a clean route still works.
      core::MigrateResult res = rig.migrate_with_retry(*rig.spare2);
      EXPECT_EQ(res, core::MigrateResult::kOk);
      recovered_move_done = true;
    }
  });

  EXPECT_EQ(delivered, kMessages)
      << "rollback lost an acknowledged round trip";
  EXPECT_TRUE(drop_done);
  EXPECT_TRUE(recovered_move_done);
  core::MigrationStats stats = rig.coordinator.stats();
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(rig.service.instances[0]->placement(), rig.spare2->id());

  fp::clear_all();
  std::this_thread::sleep_for(200ms);
  core::HealthSnapshot snap = rig.rt.health();
  EXPECT_EQ(snap.count_in_state(core::ActorState::kQuarantined), 0u);
  rig.rt.stop();
}

}  // namespace
}  // namespace ea

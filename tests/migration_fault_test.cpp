// Migration fault-injection tests (ctest labels: fault, migrate;
// EA_FAILPOINTS builds only).
//
// The four shipped migration failpoints, each proving a DESIGN.md §17
// rollback property:
//
//   migrate.seal.fail     export/seal dies source-locally → the actor
//                         resumes in place, nothing leaves the enclave;
//   migrate.transfer.drop the bundle never reaches the target → the source
//                         is restored from the exported bundle, byte for
//                         byte, and the (source, target) route — never the
//                         actor — is quarantined;
//   migrate.resume.spent  a copy of the bundle resumed first → this resume
//                         is refused as a fork, the source restored and
//                         the route quarantined;
//   migrate.resume.dup    a duplicate resume of the same bundle → the
//                         monotonic-counter consume refuses it (the
//                         resume-twice fork is counted, not executed).
//
// Plus the one rollback exit no failpoint is needed for: a running home
// worker whose affinity table is full (kAffinityFailed) rolls back without
// blaming the route. Every rollback exit of the table in DESIGN.md §17 is
// covered here, import failure included.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/migration.hpp"
#include "core/runtime.hpp"
#include "core/worker.hpp"
#include "sgxsim/cost_model.hpp"
#include "util/bytes.hpp"
#include "util/failpoint.hpp"

namespace fp = ea::util::failpoint;

namespace ea::core {
namespace {

class MigrationFaultTest : public ::testing::Test {
 protected:
  MigrationFaultTest() {
    sgxsim::cost_model().ecall_cycles = 0;
    sgxsim::cost_model().ocall_cycles = 0;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
    fp::clear_all();
  }
  ~MigrationFaultTest() override { fp::clear_all(); }
  sgxsim::ScopedCostModel scoped_;
};

// Migratable actor with one-counter private state; imports_ counts the
// restores, so a rollback visibly goes through import_state().
class VictimActor : public Actor {
 public:
  explicit VictimActor(std::string name) : Actor(std::move(name)) {}

  bool body() override { return false; }
  bool migratable() const override { return true; }

  util::Bytes export_state() override {
    util::Bytes out(8);
    util::store_le64(out.data(), value_);
    return out;
  }
  bool import_state(std::span<const std::uint8_t> state) override {
    if (state.size() != 8) return false;
    value_ = util::load_le64(state.data());
    ++imports_;
    return import_ok_;
  }

  std::uint64_t value_ = 7;
  int imports_ = 0;
  bool import_ok_ = true;
};

struct Deployment {
  Runtime rt;
  VictimActor* victim = nullptr;
  sgxsim::Enclave* src = nullptr;
  sgxsim::Enclave* dst = nullptr;
  std::uint64_t src_base = 0;
  std::uint64_t dst_base = 0;

  explicit Deployment(const std::string& tag) {
    src = &rt.enclave(tag + ".src");
    dst = &rt.enclave(tag + ".dst");
    src_base = src->committed_bytes();
    dst_base = dst->committed_bytes();
    auto owned = std::make_unique<VictimActor>(tag + ".victim");
    victim = owned.get();
    rt.add_actor(std::move(owned), tag + ".src");
  }
};

// What every post-ticket rollback leaves behind: the actor Runnable at the
// source, its state restored from the exported bundle, and the EPC
// accounting as it was before the attempt.
void expect_restored_at_source(const Deployment& d) {
  EXPECT_EQ(d.victim->lifecycle(), ActorState::kRunnable);
  EXPECT_EQ(d.victim->placement(), d.src->id());
  EXPECT_EQ(d.victim->value_, 7u);
  EXPECT_EQ(d.victim->imports_, 1);  // restored from the exported bundle
  EXPECT_EQ(d.src->committed_bytes(), d.src_base + d.victim->state_bytes());
  EXPECT_EQ(d.dst->committed_bytes(), d.dst_base);
}

TEST_F(MigrationFaultTest, SealFailureResumesInPlace) {
  Deployment d("sealf");
  MigrationCoordinator coordinator(d.rt);
  ASSERT_TRUE(fp::set("migrate.seal.fail", "once"));

  EXPECT_EQ(coordinator.migrate(*d.victim, *d.dst), MigrateResult::kSealFailed);
  EXPECT_EQ(fp::hits("migrate.seal.fail"), 1u);
  EXPECT_EQ(d.victim->lifecycle(), ActorState::kRunnable);
  EXPECT_EQ(d.victim->placement(), d.src->id());
  EXPECT_EQ(d.victim->value_, 7u);
  EXPECT_EQ(d.victim->imports_, 0);  // export left the state: no restore
  EXPECT_EQ(d.src->committed_bytes(),
            d.src_base + d.victim->state_bytes());  // accounting untouched
  EXPECT_EQ(d.dst->committed_bytes(), d.dst_base);
  MigrationStats stats = coordinator.stats();
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.completed, 0u);
  // A seal failure is source-local: the route keeps working.
  EXPECT_FALSE(coordinator.route_quarantined(d.src->id(), d.dst->id()));
  EXPECT_EQ(coordinator.migrate(*d.victim, *d.dst), MigrateResult::kOk);
}

TEST_F(MigrationFaultTest, TransferDropRestoresSourceAndQuarantinesRoute) {
  Deployment d("drop");
  MigrationCoordinator coordinator(d.rt);
  ASSERT_TRUE(fp::set("migrate.transfer.drop", "once"));

  EXPECT_EQ(coordinator.migrate(*d.victim, *d.dst),
            MigrateResult::kTransferFailed);
  EXPECT_EQ(fp::hits("migrate.transfer.drop"), 1u);

  // The actor is restored at the source — Runnable, state intact — and
  // ONLY the route is quarantined.
  expect_restored_at_source(d);
  EXPECT_TRUE(coordinator.route_quarantined(d.src->id(), d.dst->id()));
  EXPECT_EQ(coordinator.stats().rolled_back, 1u);
  // The quarantined route refuses further attempts ...
  EXPECT_EQ(coordinator.migrate(*d.victim, *d.dst),
            MigrateResult::kRouteQuarantined);
  // ... but the ACTOR is not quarantined: a third enclave works first try.
  sgxsim::Enclave& alt = d.rt.enclave("drop.alt");
  EXPECT_EQ(coordinator.migrate(*d.victim, alt), MigrateResult::kOk);
  EXPECT_EQ(d.victim->placement(), alt.id());
  EXPECT_EQ(d.victim->value_, 7u);
}

// The restore hands back the whole exported state, not just a counter: a
// 200,003-byte state (past glibc's mmap threshold) whose transfer is
// dropped comes back at the source byte for byte.
class BlobVictim : public Actor {
 public:
  BlobVictim(std::string name, util::Bytes state)
      : Actor(std::move(name)), state_(std::move(state)) {}

  bool body() override { return false; }
  bool migratable() const override { return true; }

  util::Bytes export_state() override { return state_; }
  bool import_state(std::span<const std::uint8_t> state) override {
    state_.assign(state.begin(), state.end());
    ++imports_;
    return true;
  }

  util::Bytes state_;
  int imports_ = 0;
};

TEST_F(MigrationFaultTest, TransferDropRestoresLargeStateByteForByte) {
  Runtime rt;
  sgxsim::Enclave& src = rt.enclave("bigdrop.src");
  sgxsim::Enclave& dst = rt.enclave("bigdrop.dst");
  util::Bytes state(200'003);
  for (std::size_t i = 0; i < state.size(); ++i) {
    state[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
  }
  auto owned = std::make_unique<BlobVictim>("bigdrop.victim", state);
  BlobVictim* victim = owned.get();
  rt.add_actor(std::move(owned), "bigdrop.src");
  MigrationCoordinator coordinator(rt);
  ASSERT_TRUE(fp::set("migrate.transfer.drop", "once"));

  EXPECT_EQ(coordinator.migrate(*victim, dst), MigrateResult::kTransferFailed);
  EXPECT_EQ(fp::hits("migrate.transfer.drop"), 1u);
  EXPECT_EQ(victim->lifecycle(), ActorState::kRunnable);
  EXPECT_EQ(victim->placement(), src.id());
  EXPECT_EQ(victim->imports_, 1);
  EXPECT_EQ(victim->state_, state);
  EXPECT_TRUE(coordinator.route_quarantined(src.id(), dst.id()));
}

TEST_F(MigrationFaultTest, DuplicateResumeTripsTheCounterGuard) {
  Deployment d("dup");
  MigrationCoordinator coordinator(d.rt);
  ASSERT_TRUE(fp::set("migrate.resume.dup", "once"));

  // The migration itself succeeds; the injected SECOND consume of the same
  // ticket — the resume-twice fork — must be refused by the
  // compare-and-increment and counted as a prevented fork.
  EXPECT_EQ(coordinator.migrate(*d.victim, *d.dst), MigrateResult::kOk);
  EXPECT_EQ(fp::hits("migrate.resume.dup"), 1u);
  MigrationStats stats = coordinator.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.forks_prevented, 1u);
  EXPECT_EQ(d.victim->placement(), d.dst->id());
}

TEST_F(MigrationFaultTest, SpentTicketRefusesResumeAndQuarantinesRoute) {
  Deployment d("spent");
  MigrationCoordinator coordinator(d.rt);
  ASSERT_TRUE(fp::set("migrate.resume.spent", "once"));

  EXPECT_EQ(coordinator.migrate(*d.victim, *d.dst),
            MigrateResult::kResumeRefused);
  EXPECT_EQ(fp::hits("migrate.resume.spent"), 1u);
  expect_restored_at_source(d);
  EXPECT_TRUE(coordinator.route_quarantined(d.src->id(), d.dst->id()));
  MigrationStats stats = coordinator.stats();
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.forks_prevented, 1u);
}

TEST_F(MigrationFaultTest, FullAffinityTableRollsBackWithoutQuarantine) {
  Deployment d("aff");
  d.rt.add_worker("aff.w", {}, {"aff.victim"});
  d.rt.start();  // default static scheduler: live migration is allowed
  // Fill the running home worker's affinity table (its own enclave holds
  // one slot) with enclaves other than the target.
  Worker& home = *d.rt.workers().front();
  for (sgxsim::EnclaveId fake = 1u << 30; home.grant_affinity(fake); ++fake) {
  }
  ASSERT_FALSE(home.can_run(d.dst->id()));

  MigrationCoordinator coordinator(d.rt);
  EXPECT_EQ(coordinator.migrate(*d.victim, *d.dst),
            MigrateResult::kAffinityFailed);
  d.rt.stop();
  expect_restored_at_source(d);
  // A full table says nothing about the route.
  EXPECT_FALSE(coordinator.route_quarantined(d.src->id(), d.dst->id()));
  MigrationStats stats = coordinator.stats();
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.rolled_back, 1u);
  EXPECT_EQ(stats.forks_prevented, 0u);
}

TEST_F(MigrationFaultTest, ImportFailureRollsBackPlacementAndAccounting) {
  Deployment d("impf");
  d.victim->import_ok_ = false;  // target-side import refuses
  MigrationCoordinator coordinator(d.rt);

  EXPECT_EQ(coordinator.migrate(*d.victim, *d.dst),
            MigrateResult::kImportFailed);
  EXPECT_EQ(d.victim->lifecycle(), ActorState::kRunnable);
  EXPECT_EQ(d.victim->placement(), d.src->id());
  EXPECT_EQ(d.src->committed_bytes(), d.src_base + d.victim->state_bytes());
  EXPECT_EQ(d.dst->committed_bytes(), d.dst_base);
  EXPECT_TRUE(coordinator.route_quarantined(d.src->id(), d.dst->id()));
  EXPECT_EQ(coordinator.stats().rolled_back, 1u);
}

}  // namespace
}  // namespace ea::core

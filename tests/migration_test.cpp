// Live actor migration tests (ctest label: migrate; tier-1).
//
// DESIGN.md §17 end to end, without fault injection (the rollback and
// duplicate-resume paths live in migration_fault_test.cpp):
//
//  * the monotonic-counter ticket has exactly one consume winner;
//  * a pre-start migration moves placement AND the EPC accounting;
//  * an odd-sized state past the mmap threshold and an empty state both
//    round-trip byte for byte;
//  * every refusal code (not-migratable, untrusted, same placement, unknown
//    names) fires before any state moves, and an actor that holds a
//    channel carried over TCP is not migratable;
//  * a live migration under the stealing scheduler mid-traffic loses and
//    reorders nothing on an encrypted channel rebound in place, and the
//    EPC accounting in Runtime::health() follows the actor;
//  * a channel rebind with no free pool node carries every queued message,
//    plain -> encrypted and encrypted -> encrypted;
//  * the park barrier ends a drain-until-empty quantum — a channel drain
//    and an XMPP instance's inbox drain — while the input keeps the queue
//    full, and the queued rest is carried over;
//  * a live migration under the static scheduler is followed by the
//    worker: every later activation runs inside the target enclave;
//  * per-enclave EPC accounting is visible through Runtime::health().

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "concurrent/arena.hpp"
#include "concurrent/mbox.hpp"
#include "core/channel.hpp"
#include "core/health.hpp"
#include "core/migration.hpp"
#include "core/runtime.hpp"
#include "core/worker.hpp"
#include "crypto/sha256.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/monotonic_counter.hpp"
#include "sgxsim/transition.hpp"
#include "util/bytes.hpp"
#include "xmpp/server.hpp"

namespace ea::core {
namespace {

using namespace std::chrono_literals;

bool eventually(std::function<bool()> pred,
                std::chrono::milliseconds limit = 10s) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() {
    sgxsim::cost_model().ecall_cycles = 0;
    sgxsim::cost_model().ocall_cycles = 0;
    sgxsim::cost_model().rng_cycles_per_byte = 0;
  }
  sgxsim::ScopedCostModel scoped_;
};

// A migratable actor whose private state is one counter; the export/import
// hooks round-trip it so a migration visibly carries state.
class MigratoryActor : public Actor {
 public:
  explicit MigratoryActor(std::string name) : Actor(std::move(name)) {}

  bool body() override { return false; }
  bool migratable() const override { return migratable_; }
  std::uint64_t state_bytes() const override { return state_bytes_; }

  util::Bytes export_state() override {
    util::Bytes out(8);
    util::store_le64(out.data(), value_);
    ++exports_;
    return out;
  }
  bool import_state(std::span<const std::uint8_t> state) override {
    if (state.size() != 8) return false;
    value_ = util::load_le64(state.data());
    ++imports_;
    return true;
  }

  bool migratable_ = true;
  std::uint64_t state_bytes_ = 4096;
  std::uint64_t value_ = 0;
  int exports_ = 0;
  int imports_ = 0;
};

TEST_F(MigrationTest, TicketConsumeHasExactlyOneWinner) {
  auto& svc = sgxsim::MonotonicCounterService::instance();
  const crypto::Sha256Digest ns = crypto::sha256("migration-test-ns");
  const std::uint64_t ticket = svc.increment_ns(ns, 7);
  EXPECT_EQ(svc.read_ns(ns, 7), ticket);
  // First consume of the expected value wins and advances the counter ...
  EXPECT_TRUE(svc.consume(ns, 7, ticket));
  // ... so the duplicate (a resume-twice fork) is refused, as is any stale
  // expectation.
  EXPECT_FALSE(svc.consume(ns, 7, ticket));
  EXPECT_FALSE(svc.consume(ns, 7, ticket - 1));
  EXPECT_EQ(svc.read_ns(ns, 7), ticket + 1);
  // Slots and namespaces are independent.
  EXPECT_EQ(svc.read_ns(ns, 8), 0u);
}

TEST_F(MigrationTest, PreStartMigrationMovesStateAndEpcAccounting) {
  Runtime rt;
  sgxsim::Enclave& src = rt.enclave("pre.src");
  sgxsim::Enclave& dst = rt.enclave("pre.dst");
  // Enclave creation commits a baseline (SECS/TCS/heap pages); the actor's
  // accounting rides on top of it.
  const std::uint64_t src_base = src.committed_bytes();
  const std::uint64_t dst_base = dst.committed_bytes();
  auto owned = std::make_unique<MigratoryActor>("pre.actor");
  MigratoryActor* actor = owned.get();
  actor->value_ = 42;
  rt.add_actor(std::move(owned), "pre.src");
  ASSERT_EQ(src.committed_bytes(), src_base + actor->state_bytes());
  ASSERT_EQ(dst.committed_bytes(), dst_base);

  MigrationCoordinator coordinator(rt);
  EXPECT_EQ(coordinator.migrate("pre.actor", "pre.dst"), MigrateResult::kOk);

  EXPECT_EQ(actor->placement(), dst.id());
  EXPECT_EQ(actor->lifecycle(), ActorState::kRunnable);
  EXPECT_EQ(actor->value_, 42u);
  EXPECT_EQ(actor->exports_, 1);
  EXPECT_EQ(actor->imports_, 1);
  EXPECT_EQ(src.committed_bytes(), src_base);
  EXPECT_EQ(dst.committed_bytes(), dst_base + actor->state_bytes());

  MigrationStats stats = coordinator.stats();
  EXPECT_EQ(stats.attempted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rolled_back, 0u);
  EXPECT_EQ(coordinator.pause_hist().count(), 1u);
}

// A migratable actor whose private state is an arbitrary byte string,
// exported and imported verbatim.
class BlobActor : public Actor {
 public:
  BlobActor(std::string name, util::Bytes state)
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

// The transfer frame carries any state length: an odd size past glibc's
// 128 KiB mmap threshold, and nothing at all. Both come back byte for byte
// after a move there and back.
TEST_F(MigrationTest, OddSizedAndEmptyStatesRoundTripByteForByte) {
  const std::pair<const char*, std::size_t> cases[] = {{"blob.big", 200'003},
                                                        {"blob.empty", 0}};
  for (const auto& [tag, size] : cases) {
    SCOPED_TRACE(tag);
    const std::string name(tag);
    Runtime rt;
    sgxsim::Enclave& a = rt.enclave(name + ".a");
    sgxsim::Enclave& b = rt.enclave(name + ".b");
    util::Bytes state(size);
    for (std::size_t i = 0; i < size; ++i) {
      state[i] = static_cast<std::uint8_t>((i * 131) ^ (i >> 9));
    }
    auto owned = std::make_unique<BlobActor>(name + ".actor", state);
    BlobActor* actor = owned.get();
    rt.add_actor(std::move(owned), name + ".a");

    MigrationCoordinator coordinator(rt);
    ASSERT_EQ(coordinator.migrate(*actor, b), MigrateResult::kOk);
    EXPECT_EQ(actor->placement(), b.id());
    EXPECT_EQ(actor->state_, state);
    ASSERT_EQ(coordinator.migrate(*actor, a), MigrateResult::kOk);
    EXPECT_EQ(actor->placement(), a.id());
    EXPECT_EQ(actor->state_, state);
    EXPECT_EQ(actor->imports_, 2);
    EXPECT_EQ(coordinator.stats().rolled_back, 0u);
  }
}

TEST_F(MigrationTest, RefusalCodesFireBeforeAnyStateMoves) {
  Runtime rt;
  rt.enclave("ref.src");
  sgxsim::Enclave& dst = rt.enclave("ref.dst");
  auto owned = std::make_unique<MigratoryActor>("ref.actor");
  MigratoryActor* actor = owned.get();
  rt.add_actor(std::move(owned), "ref.src");
  auto untrusted_owned = std::make_unique<MigratoryActor>("ref.untrusted");
  MigratoryActor* untrusted = untrusted_owned.get();
  rt.add_actor(std::move(untrusted_owned), "");
  rt.add_worker("ref.w", {}, {"ref.actor", "ref.untrusted"});

  MigrationCoordinator coordinator(rt);
  EXPECT_EQ(coordinator.migrate("no-such-actor", "ref.dst"),
            MigrateResult::kNotFound);
  EXPECT_EQ(coordinator.migrate(*untrusted, dst), MigrateResult::kNotMigratable);
  actor->migratable_ = false;
  EXPECT_EQ(coordinator.migrate(*actor, dst), MigrateResult::kNotMigratable);
  actor->migratable_ = true;
  sgxsim::Enclave& src = rt.enclave("ref.src");
  EXPECT_EQ(coordinator.migrate(*actor, src), MigrateResult::kSamePlacement);

  EXPECT_EQ(actor->placement(), src.id());
  EXPECT_EQ(coordinator.stats().attempted, 0u);

  // Not a refusal: every dispatch re-reads placement, so live migration
  // also works under the (default) static scheduler.
  rt.start();
  EXPECT_EQ(coordinator.migrate(*actor, dst), MigrateResult::kOk);
  rt.stop();
}

// --- live migration under the stealing scheduler ----------------------------

// Untrusted driver: window-sends sequence numbers and asserts the echoes
// come back complete and strictly in order — the zero-loss/zero-reorder
// probe for migration mid-traffic.
class PingActor : public Actor {
 public:
  PingActor(std::string name, std::uint64_t total)
      : Actor(std::move(name)), total_(total) {}

  void construct(Runtime&) override { end_ = connect("mig.chan"); }

  bool body() override {
    bool progress = false;
    while (concurrent::NodeLease lease = end_->recv()) {
      progress = true;
      if (lease->data().size() != 8) {
        violations_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const std::uint64_t seq = util::load_le64(lease->data().data());
      if (seq != acked_.load(std::memory_order_relaxed)) {
        violations_.fetch_add(1, std::memory_order_relaxed);
      }
      acked_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uint64_t acked = acked_.load(std::memory_order_relaxed);
    while (next_ < total_ && next_ < acked + 32) {
      std::uint8_t wire[8];
      util::store_le64(wire, next_);
      if (!end_->send(std::span<const std::uint8_t>(wire, 8))) break;
      ++next_;
      progress = true;
    }
    return progress;
  }

  std::uint64_t acked() const noexcept {
    return acked_.load(std::memory_order_relaxed);
  }
  std::uint64_t violations() const noexcept {
    return violations_.load(std::memory_order_relaxed);
  }

 private:
  ChannelEnd* end_ = nullptr;
  std::uint64_t total_;
  std::uint64_t next_ = 0;
  std::atomic<std::uint64_t> acked_{0};
  std::atomic<std::uint64_t> violations_{0};
};

// Enclaved echo with migratable private state (its echo count).
class EchoActor : public MigratoryActor {
 public:
  using MigratoryActor::MigratoryActor;

  void construct(Runtime&) override { end_ = connect("mig.chan"); }

  bool body() override {
    bool progress = false;
    while (concurrent::NodeLease lease = end_->recv()) {
      ++value_;  // private state the migration must carry
      end_->send(lease->data());
      progress = true;
    }
    return progress;
  }

 private:
  ChannelEnd* end_ = nullptr;
};

TEST_F(MigrationTest, ActorOnACarriedChannelIsNotMigratable) {
  Runtime rt;
  sgxsim::Enclave& src = rt.enclave("carry.src");
  sgxsim::Enclave& dst = rt.enclave("carry.dst");
  auto owned = std::make_unique<EchoActor>("carry.echo");
  EchoActor* echo = owned.get();
  rt.add_actor(std::move(owned), "carry.src");
  run_in_placement(*echo, [&] { echo->construct(rt); });
  Channel& chan = *rt.channels().at("mig.chan");
  ASSERT_NE(chan.connect(sgxsim::kUntrusted), nullptr);

  // A carrier (net::ChannelLink) moves the frames between the two mboxes
  // of each direction; a rekey could not reach the ones it holds.
  concurrent::Mbox arrivals[2];
  chan.carry(0, arrivals[0]);
  chan.carry(1, arrivals[1]);
  MigrationCoordinator coordinator(rt);
  EXPECT_EQ(coordinator.migrate(*echo, dst), MigrateResult::kNotMigratable);
  EXPECT_EQ(echo->placement(), src.id());
  EXPECT_EQ(coordinator.stats().attempted, 0u);

  // Uncarried, the same actor moves.
  chan.carry(0, chan.departures(0));
  chan.carry(1, chan.departures(1));
  EXPECT_EQ(coordinator.migrate(*echo, dst), MigrateResult::kOk);
  EXPECT_EQ(echo->placement(), dst.id());
}

TEST_F(MigrationTest, LiveMigrationLosesNoMessageOnEncryptedChannel) {
  RuntimeOptions options;
  options.sched = SchedMode::kSteal;
  Runtime rt(options);
  rt.enclave("live.e0");
  sgxsim::Enclave& e1 = rt.enclave("live.e1");
  sgxsim::Enclave& e2 = rt.enclave("live.e2");
  const std::uint64_t e1_base = e1.committed_bytes();
  const std::uint64_t e2_base = e2.committed_bytes();

  constexpr std::uint64_t kTotal = 60000;
  // The ping side sits in its own enclave so the channel crosses enclave
  // boundaries (and is transparently encrypted) before AND after every hop.
  auto ping_owned = std::make_unique<PingActor>("live.ping", kTotal);
  PingActor* ping = ping_owned.get();
  rt.add_actor(std::move(ping_owned), "live.e0");
  auto echo_owned = std::make_unique<EchoActor>("live.echo");
  EchoActor* echo = echo_owned.get();
  rt.add_actor(std::move(echo_owned), "live.e1");
  rt.add_worker("live.w1", {}, {"live.ping"});
  rt.add_worker("live.w2", {}, {"live.echo"});
  rt.start();

  MigrationCoordinator coordinator(rt);
  ASSERT_TRUE(eventually([&] { return ping->acked() > 100; }));
  const std::uint64_t acked_before_first_move = ping->acked();

  // Bounce the echo actor between the enclaves mid-traffic; the channel is
  // encrypted throughout (distinct enclave pair) but rekeys per rebind.
  int moves = 0;
  auto move_deadline = std::chrono::steady_clock::now() + 10s;
  while (moves < 4 && ping->acked() < kTotal &&
         std::chrono::steady_clock::now() < move_deadline) {
    sgxsim::Enclave& target = (echo->placement() == e1.id()) ? e2 : e1;
    MigrateResult r = coordinator.migrate(*echo, target);
    ASSERT_TRUE(r == MigrateResult::kOk || r == MigrateResult::kBusy)
        << to_string(r);
    if (r == MigrateResult::kOk) ++moves;
    std::this_thread::sleep_for(2ms);
  }
  ASSERT_GE(moves, 1);
  // The first move happened while the stream was far from done.
  EXPECT_LT(acked_before_first_move, kTotal);

  EXPECT_TRUE(eventually([&] { return ping->acked() == kTotal; }))
      << "acked " << ping->acked() << " of " << kTotal;
  rt.stop();

  EXPECT_EQ(ping->violations(), 0u) << "echo stream lost or reordered";
  EXPECT_EQ(echo->value_, kTotal);  // private state carried across every hop
  Channel& chan = rt.channel("mig.chan");
  EXPECT_TRUE(chan.encrypted());
  EXPECT_EQ(chan.auth_failures(), 0u);
  EXPECT_EQ(chan.frame_errors(), 0u);

  MigrationStats stats = coordinator.stats();
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(moves));
  EXPECT_EQ(stats.rolled_back, 0u);
  EXPECT_EQ(coordinator.pause_hist().count(),
            static_cast<std::uint64_t>(moves));

  // The EPC accounting followed the echo across the live moves: its final
  // enclave carries its state on top of the baseline, the other is back
  // at its own baseline.
  const bool at_e1 = echo->placement() == e1.id();
  HealthSnapshot snap = rt.health();
  EXPECT_EQ(snap.enclave_by_name(at_e1 ? "live.e1" : "live.e2")->committed,
            (at_e1 ? e1_base : e2_base) + echo->state_bytes());
  EXPECT_EQ(snap.enclave_by_name(at_e1 ? "live.e2" : "live.e1")->committed,
            at_e1 ? e2_base : e1_base);
}

// The rebind drain opens each queued node in place and re-seals that same
// node, so it carries every message even when the pool has no free node:
// plain -> encrypted (a co-located pair splits) and encrypted -> encrypted
// (a new pair key).
TEST_F(MigrationTest, RebindWithNoFreeNodeCarriesEveryMessage) {
  auto& mgr = sgxsim::EnclaveManager::instance();
  for (const bool start_encrypted : {false, true}) {
    SCOPED_TRACE(start_encrypted ? "encrypted -> encrypted"
                                 : "plain -> encrypted");
    const std::string tag = start_encrypted ? "enc" : "plain";
    const sgxsim::EnclaveId e1 = mgr.create("rebind." + tag + ".e1").id();
    const sgxsim::EnclaveId e2 = mgr.create("rebind." + tag + ".e2").id();
    const sgxsim::EnclaveId e3 = mgr.create("rebind." + tag + ".e3").id();
    concurrent::NodeArena arena(8, 256);
    concurrent::Pool pool;
    pool.adopt(arena);
    MigratoryActor mover("rebind.mover"), peer("rebind.peer");
    Channel chan("rebind." + tag, {}, pool);
    ChannelEnd* a = chan.connect(e1, &mover);
    ChannelEnd* b = chan.connect(start_encrypted ? e2 : e1, &peer);
    ASSERT_EQ(chan.encrypted(), start_encrypted);

    // Queue messages both ways until the pool is dry.
    std::vector<std::string> a_to_b, b_to_a;
    for (int i = 0;; ++i) {
      const std::string msg = "msg-" + std::to_string(i);
      if (!(i % 2 == 0 ? a : b)->send(msg)) break;
      (i % 2 == 0 ? a_to_b : b_to_a).push_back(msg);
    }
    ASSERT_EQ(a_to_b.size() + b_to_a.size(), arena.count());
    ASSERT_EQ(pool.size(), 0u);

    EXPECT_EQ(chan.rebind_for_migration(mover, start_encrypted ? e3 : e2),
              arena.count());
    EXPECT_TRUE(chan.encrypted());
    EXPECT_EQ(chan.frame_errors(), 0u);
    EXPECT_EQ(chan.auth_failures(), 0u);
    for (const std::string& msg : a_to_b) {
      concurrent::NodeLease got = b->recv();
      ASSERT_TRUE(got);
      EXPECT_EQ(got->view(), msg);
    }
    for (const std::string& msg : b_to_a) {
      concurrent::NodeLease got = a->recv();
      ASSERT_TRUE(got);
      EXPECT_EQ(got->view(), msg);
    }
    EXPECT_FALSE(a->pending());
    EXPECT_FALSE(b->pending());
    EXPECT_EQ(pool.size(), arena.count());
  }
}

// --- the park barrier under continuous input --------------------------------

// Floods a queue with sequence-numbered messages as fast as the pool
// allows until told to stop or until its own deadline passes, so a park
// that waits for the input to stop still returns, and the test can tell
// that it waited.
class FloodActor : public Actor {
 public:
  FloodActor(std::string name, std::chrono::steady_clock::time_point deadline)
      : Actor(std::move(name)), deadline_(deadline) {}

  bool body() override {
    if (!stop_.load(std::memory_order_relaxed) &&
        std::chrono::steady_clock::now() >= deadline_) {
      deadline_hit_.store(true, std::memory_order_relaxed);
      stop_.store(true, std::memory_order_relaxed);
    }
    if (stop_.load(std::memory_order_relaxed)) {
      quiet_.store(true, std::memory_order_release);
      return false;
    }
    bool progress = false;
    for (int i = 0; i < 64 && send_one(next_); ++i) {
      ++next_;
      progress = true;
    }
    sent_.store(next_, std::memory_order_release);
    return progress;
  }

  void stop() { stop_.store(true, std::memory_order_relaxed); }
  // True once a body has seen the stop: nothing is sent after that.
  bool quiet() const { return quiet_.load(std::memory_order_acquire); }
  bool deadline_hit() const {
    return deadline_hit_.load(std::memory_order_relaxed);
  }
  std::uint64_t sent() const { return sent_.load(std::memory_order_acquire); }

 protected:
  // Sends message `seq`; false when the pool is exhausted.
  virtual bool send_one(std::uint64_t seq) = 0;

 private:
  const std::chrono::steady_clock::time_point deadline_;
  std::uint64_t next_ = 0;
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> quiet_{false};
  std::atomic<bool> deadline_hit_{false};
};

class ChannelFloodActor : public FloodActor {
 public:
  using FloodActor::FloodActor;
  void construct(Runtime&) override { end_ = connect("flood.chan"); }

 protected:
  bool send_one(std::uint64_t seq) override {
    std::uint8_t wire[8];
    util::store_le64(wire, seq);
    return end_->send(std::span<const std::uint8_t>(wire, 8));
  }

 private:
  ChannelEnd* end_ = nullptr;
};

// Drains its channel until empty and spends ~4 µs per message, so the
// flood keeps the queue non-empty and a quantum never ends on its own. Its
// migratable state is the next sequence number it expects.
class DrainActor : public MigratoryActor {
 public:
  using MigratoryActor::MigratoryActor;

  void construct(Runtime&) override { end_ = connect("flood.chan"); }

  bool body() override {
    bool progress = false;
    while (concurrent::NodeLease lease = end_->recv()) {
      const std::uint64_t seq = lease->data().size() == 8
                                    ? util::load_le64(lease->data().data())
                                    : ~0ull;
      if (seq != value_) violations_.fetch_add(1, std::memory_order_relaxed);
      value_ = seq + 1;
      received_.store(value_, std::memory_order_release);
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(4);
      while (std::chrono::steady_clock::now() < until) {
      }
      progress = true;
    }
    return progress;
  }

  std::uint64_t received() const {
    return received_.load(std::memory_order_acquire);
  }
  std::uint64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }

 private:
  ChannelEnd* end_ = nullptr;
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> violations_{0};
};

// The park barrier waits for the actor's running quantum. A body that
// drains until empty must end that quantum at the barrier even while its
// peer keeps the queue full; the rest is carried over by the rebind.
TEST_F(MigrationTest, ParkEndsDrainingQuantumUnderContinuousInput) {
  RuntimeOptions options;
  options.sched = SchedMode::kSteal;
  Runtime rt(options);
  rt.enclave("flood.e0");
  rt.enclave("flood.e1");
  sgxsim::Enclave& e2 = rt.enclave("flood.e2");
  auto flood_owned = std::make_unique<ChannelFloodActor>(
      "flood.src", std::chrono::steady_clock::now() + 5s);
  ChannelFloodActor* flood = flood_owned.get();
  rt.add_actor(std::move(flood_owned), "flood.e0");
  auto drain_owned = std::make_unique<DrainActor>("flood.drain");
  DrainActor* drain = drain_owned.get();
  rt.add_actor(std::move(drain_owned), "flood.e1");
  rt.add_worker("flood.w0", {}, {"flood.src"});
  rt.add_worker("flood.w1", {}, {"flood.drain"});
  rt.start();

  MigrationCoordinator coordinator(rt);
  ASSERT_TRUE(eventually([&] { return drain->received() > 1000; }));
  ASSERT_EQ(coordinator.migrate(*drain, e2), MigrateResult::kOk);
  EXPECT_FALSE(flood->deadline_hit())
      << "migrate() returned only once the input stopped";
  // The input is still flowing, now into the target enclave.
  const std::uint64_t sent_at_move = flood->sent();
  EXPECT_TRUE(eventually([&] { return drain->received() > sent_at_move; }));
  flood->stop();
  ASSERT_TRUE(eventually([&] { return flood->quiet(); }));
  EXPECT_TRUE(
      eventually([&] { return drain->received() == flood->sent(); }))
      << "received " << drain->received() << " of " << flood->sent();
  rt.stop();

  EXPECT_EQ(drain->violations(), 0u) << "flood lost or reordered";
  EXPECT_EQ(drain->value_, flood->sent());  // carried state kept counting
  EXPECT_EQ(drain->placement(), e2.id());
  Channel& chan = rt.channel("flood.chan");
  EXPECT_TRUE(chan.encrypted());
  EXPECT_EQ(chan.auth_failures(), 0u);
  EXPECT_EQ(chan.frame_errors(), 0u);
  const MigrationStats stats = coordinator.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.rolled_back, 0u);
  EXPECT_GT(stats.in_flight_carried, 0u) << "the queue was empty at the move";
}

// An XMPP protocol instance drains its inbox the same way. Whitespace
// keep-alives cost it parse time and produce no output, so this flood
// keeps the inbox non-empty without sockets, a READER or a WRITER.
class KeepAliveFloodActor : public FloodActor {
 public:
  KeepAliveFloodActor(std::string name,
                      std::chrono::steady_clock::time_point deadline,
                      concurrent::Mbox& inbox, concurrent::Pool& pool)
      : FloodActor(std::move(name), deadline), inbox_(inbox), pool_(pool) {}

 protected:
  bool send_one(std::uint64_t) override {
    concurrent::Node* node = pool_.get();
    if (node == nullptr) return false;
    static const std::string kKeepAlive(1024, ' ');
    node->fill(kKeepAlive);
    node->tag = 7;  // one client's socket
    inbox_.push(node);
    return true;
  }

 private:
  concurrent::Mbox& inbox_;
  concurrent::Pool& pool_;
};

TEST_F(MigrationTest, ParkEndsXmppInboxDrainUnderContinuousInput) {
  RuntimeOptions options;
  options.sched = SchedMode::kSteal;
  Runtime rt(options);
  rt.enclave("xflood.e1");
  sgxsim::Enclave& e2 = rt.enclave("xflood.e2");
  auto shared = std::make_shared<xmpp::XmppShared>();
  shared->pool = &rt.public_pool();
  shared->instances = 1;
  auto instance_owned =
      std::make_unique<xmpp::XmppActor>("xflood.xmpp", 0, shared);
  xmpp::XmppActor* instance = instance_owned.get();
  rt.add_actor(std::move(instance_owned), "xflood.e1");
  auto flood_owned = std::make_unique<KeepAliveFloodActor>(
      "xflood.src", std::chrono::steady_clock::now() + 5s, instance->inbox(),
      rt.public_pool());
  KeepAliveFloodActor* flood = flood_owned.get();
  rt.add_actor(std::move(flood_owned));
  rt.add_worker("xflood.w0", {}, {"xflood.src"});
  rt.add_worker("xflood.w1", {}, {"xflood.xmpp"});
  rt.start();

  MigrationCoordinator coordinator(rt);
  // Draining (over 1000 consumed) with a backlog (over 1000 queued).
  ASSERT_TRUE(eventually([&] {
    const std::size_t queued = instance->inbox().size();
    return queued > 1000 && flood->sent() > queued + 1000;
  }));
  ASSERT_EQ(coordinator.migrate(*instance, e2), MigrateResult::kOk);
  EXPECT_FALSE(flood->deadline_hit())
      << "migrate() returned only once the input stopped";
  EXPECT_EQ(instance->placement(), e2.id());
  // The resumed instance drains what queued up during the pause.
  flood->stop();
  ASSERT_TRUE(eventually([&] { return flood->quiet(); }));
  EXPECT_TRUE(eventually([&] { return instance->inbox().empty(); }));
  rt.stop();
  EXPECT_EQ(coordinator.stats().completed, 1u);
  EXPECT_EQ(coordinator.stats().rolled_back, 0u);
}

// --- live migration under the static scheduler ------------------------------

// Once the test names the enclave it expects (after migrate() returned),
// every activation checks that the worker runs the body inside it and that
// the placement agrees.
class PlacementProbeActor : public MigratoryActor {
 public:
  using MigratoryActor::MigratoryActor;

  bool body() override {
    const sgxsim::EnclaveId expect = expect_.load(std::memory_order_acquire);
    if (expect == sgxsim::kUntrusted) return false;
    if (sgxsim::current_enclave() == expect && placement() == expect) {
      checked_.fetch_add(1, std::memory_order_relaxed);
    } else {
      mismatches_.fetch_add(1, std::memory_order_relaxed);
    }
    return false;
  }

  std::atomic<sgxsim::EnclaveId> expect_{sgxsim::kUntrusted};
  std::atomic<std::uint64_t> checked_{0};
  std::atomic<std::uint64_t> mismatches_{0};
};

TEST_F(MigrationTest, StaticWorkerFollowsLiveMigration) {
  Runtime rt;  // default options: SchedMode::kStatic
  sgxsim::Enclave& e1 = rt.enclave("stat.e1");
  sgxsim::Enclave& e2 = rt.enclave("stat.e2");
  auto owned = std::make_unique<PlacementProbeActor>("stat.probe");
  PlacementProbeActor* probe = owned.get();
  probe->value_ = 42;
  rt.add_actor(std::move(owned), "stat.e1");
  // A second e1 actor: the worker starts single-enclave and turns mixed
  // once the probe leaves.
  rt.add_actor(std::make_unique<MigratoryActor>("stat.peer"), "stat.e1");
  rt.add_worker("stat.w", {}, {"stat.probe", "stat.peer"});
  rt.start();
  ASSERT_TRUE(eventually([&] { return probe->invocations() > 10; }));

  // Out and back: the worker must follow both flips.
  MigrationCoordinator coordinator(rt);
  for (sgxsim::Enclave* target : {&e2, &e1}) {
    probe->expect_.store(sgxsim::kUntrusted, std::memory_order_release);
    ASSERT_EQ(coordinator.migrate(*probe, *target), MigrateResult::kOk);
    const std::uint64_t checked = probe->checked_.load();
    probe->expect_.store(target->id(), std::memory_order_release);
    ASSERT_TRUE(
        eventually([&] { return probe->checked_.load() > checked + 50; }));
  }
  rt.stop();

  EXPECT_EQ(probe->mismatches_.load(), 0u);
  EXPECT_EQ(probe->value_, 42u);  // private state carried both ways
  EXPECT_EQ(probe->placement(), e1.id());
  EXPECT_EQ(coordinator.stats().completed, 2u);
  EXPECT_EQ(coordinator.stats().rolled_back, 0u);
}

TEST_F(MigrationTest, EpcAccountingVisibleInHealth) {
  Runtime rt;
  const std::uint64_t base = rt.enclave("health.e1").committed_bytes();
  auto owned = std::make_unique<MigratoryActor>("health.actor");
  owned->state_bytes_ = 12345;
  rt.add_actor(std::move(owned), "health.e1");

  HealthSnapshot snap = rt.health();
  ASSERT_EQ(snap.enclaves.size(), 1u);
  const EnclaveHealth* e = snap.enclave_by_name("health.e1");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->committed, base + 12345u);
  EXPECT_EQ(e->epc_usable, sgxsim::cost_model().epc_usable_bytes);
  EXPECT_EQ(snap.enclave_by_name("no-such-enclave"), nullptr);
  // The human-readable rendering carries the accounting too.
  EXPECT_NE(snap.to_string().find(std::to_string(e->committed) +
                                  " bytes committed"),
            std::string::npos);
}

}  // namespace
}  // namespace ea::core

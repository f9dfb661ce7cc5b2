// Work-stealing scheduler tests (ctest label: sched; also in the TSan leg).
//
// The three invariants of DESIGN.md §14, each with a regression here:
//
//  1. Enclave affinity — an actor only ever executes on a worker whose
//     affinity mask covers the actor's enclave, and the thread is actually
//     inside that enclave while the body runs. Asserted on EVERY dispatch
//     by the actors themselves.
//  2. FIFO per actor — migration must not reorder one actor's message
//     stream. The sched_state_ exclusivity protocol guarantees at most one
//     worker executes an actor at a time; a sequence-checking consumer
//     (with deliberately non-atomic private state, so TSan would also flag
//     a protocol break) asserts the stream stays strictly in order.
//  3. Zero-copy intra-enclave sends — ChannelEnd::send_node() donates the
//     node pointer on plain/co-located channels; Channel::payload_copies()
//     stays at zero and the receiver gets the sender's very node.

#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "concurrent/mbox.hpp"
#include "concurrent/pool.hpp"
#include "concurrent/runqueue.hpp"
#include "core/channel.hpp"
#include "core/runtime.hpp"
#include "core/supervisor.hpp"
#include "core/worker.hpp"
#include "net/actors.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/transition.hpp"
#include "str_cat.hpp"
#include "util/affinity.hpp"

namespace ea::core {
namespace {

using namespace std::chrono_literals;

bool eventually(std::function<bool()> pred,
                std::chrono::milliseconds limit = 5s) {
  auto deadline = std::chrono::steady_clock::now() + limit;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

class SchedTest : public ::testing::Test {
 protected:
  SchedTest() {
    // Cheap transitions: these tests exercise scheduling protocol, not the
    // cost model.
    sgxsim::cost_model().ecall_cycles = 0;
    sgxsim::cost_model().ocall_cycles = 0;
  }
  sgxsim::ScopedCostModel scoped_;
};

// Asserts the affinity invariant on every single dispatch: the executing
// worker must be allowed to run this placement, and the thread must be
// inside the right enclave while the body runs.
class AffinityProbeActor : public Actor {
 public:
  explicit AffinityProbeActor(std::string name) : Actor(std::move(name)) {}

  bool body() override {
    Worker* w = Worker::current();
    if (w == nullptr || !w->can_run(placement()) ||
        sgxsim::current_enclave() != placement()) {
      violations_->fetch_add(1, std::memory_order_relaxed);
    }
    return true;  // always ready: keeps the queues churning
  }

  std::atomic<std::uint64_t>* violations_ = nullptr;
};

// Same affinity assertion, but never ready: parks immediately, so its home
// worker's queues drain and the worker turns thief.
class IdleProbeActor : public AffinityProbeActor {
 public:
  using AffinityProbeActor::AffinityProbeActor;
  bool body() override {
    AffinityProbeActor::body();
    return false;
  }
};

// Bursty: ready for a stretch, then parks for one beat. Wakeups always
// happen at the HOME worker (poll tick), so every park/wake cycle drags the
// actor home and exposes it to being stolen again — sustained migration
// churn instead of a one-time redistribution.
class BurstyProbeActor : public AffinityProbeActor {
 public:
  using AffinityProbeActor::AffinityProbeActor;
  bool body() override {
    AffinityProbeActor::body();
    return invocations() % 8 != 0;
  }
};

TEST_F(SchedTest, AffinityNeverViolatedUnderSteal) {
  RuntimeOptions options;
  options.sched = SchedMode::kSteal;
  Runtime rt(options);
  std::atomic<std::uint64_t> violations{0};

  // Two enclaves plus untrusted actors; workers with asymmetric masks:
  // w_e1 may enter only e1, w_e2 only e2, w_both both. Untrusted actors may
  // run anywhere. Constant churn ensures plenty of steal attempts whose
  // filter must reject cross-mask candidates.
  std::vector<AffinityProbeActor*> probes;
  auto add = [&](const std::string& name, const std::string& enclave) {
    auto actor = std::make_unique<AffinityProbeActor>(name);
    actor->violations_ = &violations;
    probes.push_back(actor.get());
    rt.add_actor(std::move(actor), enclave);
  };
  for (int i = 0; i < 4; ++i) add("e1a" + std::to_string(i), "e1");
  for (int i = 0; i < 4; ++i) add("e2a" + std::to_string(i), "e2");
  for (int i = 0; i < 4; ++i) add("ua" + std::to_string(i), "");

  rt.add_worker("w_e1", {}, {"e1a0", "e1a1", "ua0"});
  rt.add_worker("w_e2", {}, {"e2a0", "e2a1", "ua1"});
  rt.add_worker("w_both", {}, {"e1a2", "e1a3", "e2a2", "e2a3", "ua2", "ua3"});
  rt.start();

  EXPECT_TRUE(eventually([&] {
    for (const AffinityProbeActor* p : probes) {
      if (p->invocations() < 100) return false;
    }
    return true;
  }));
  rt.stop();
  EXPECT_EQ(violations.load(), 0u);

  // The masks themselves came out of the home placements.
  const auto& workers = rt.workers();
  EXPECT_EQ(workers[0]->affinity().size(), 1u);
  EXPECT_EQ(workers[1]->affinity().size(), 1u);
  EXPECT_EQ(workers[2]->affinity().size(), 2u);
  EXPECT_FALSE(workers[0]->can_run(workers[1]->affinity()[0]));
  EXPECT_TRUE(workers[0]->can_run(sgxsim::kUntrusted));
}

// Producer stamps a strictly increasing sequence into each message; the
// consumer checks it against DELIBERATELY non-atomic private state. If two
// workers ever ran the consumer concurrently (exclusivity broken) TSan
// flags the race; if migration reordered the stream the sequence check
// fails.
class SeqProducerActor : public Actor {
 public:
  SeqProducerActor(std::string name, concurrent::Pool& pool,
                   concurrent::Mbox& out, std::uint64_t total)
      : Actor(std::move(name)), pool_(pool), out_(out), total_(total) {}

  bool body() override {
    if (next_ >= total_) return false;
    concurrent::Node* node = pool_.get();
    if (node == nullptr) return false;
    node->tag = next_++;
    node->size = 0;
    out_.push(node);
    return true;
  }

 private:
  concurrent::Pool& pool_;
  concurrent::Mbox& out_;
  std::uint64_t total_;
  std::uint64_t next_ = 0;
};

class SeqConsumerActor : public Actor {
 public:
  SeqConsumerActor(std::string name, concurrent::Pool& pool,
                   concurrent::Mbox& in)
      : Actor(std::move(name)), pool_(pool), in_(in) {}

  bool body() override {
    bool progress = false;
    while (concurrent::Node* node = in_.pop()) {
      if (node->tag != expected_) ++out_of_order_;  // non-atomic on purpose
      ++expected_;
      pool_.put(node);
      progress = true;
    }
    received_.store(expected_, std::memory_order_relaxed);
    out_of_order_pub_.store(out_of_order_, std::memory_order_relaxed);
    return progress;
  }

  bool has_pending_work() const override { return !in_.empty(); }

  std::uint64_t received() const {
    return received_.load(std::memory_order_relaxed);
  }
  std::uint64_t out_of_order() const {
    return out_of_order_pub_.load(std::memory_order_relaxed);
  }

 private:
  concurrent::Pool& pool_;
  concurrent::Mbox& in_;
  std::uint64_t expected_ = 0;      // private state: exclusivity protects it
  std::uint64_t out_of_order_ = 0;  // likewise
  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> out_of_order_pub_{0};
};

TEST_F(SchedTest, FifoPerActorPreservedAcrossMigration) {
  constexpr std::uint64_t kMessages = 20000;
  RuntimeOptions options;
  options.sched = SchedMode::kSteal;
  Runtime rt(options);
  concurrent::Mbox wire;

  auto consumer_owned = std::make_unique<SeqConsumerActor>(
      "consumer", rt.public_pool(), wire);
  SeqConsumerActor* consumer = consumer_owned.get();
  rt.add_actor(std::move(consumer_owned));
  rt.add_actor(std::make_unique<SeqProducerActor>(
      "producer", rt.public_pool(), wire, kMessages));
  // Filler actors keep all four workers' queues busy so the consumer
  // actually migrates (gets stolen) instead of staying put.
  std::atomic<std::uint64_t> sink{0};
  for (int i = 0; i < 8; ++i) {
    auto probe =
        std::make_unique<AffinityProbeActor>("filler" + std::to_string(i));
    probe->violations_ = &sink;
    rt.add_actor(std::move(probe));
  }

  rt.add_worker("w0", {}, {"consumer", "filler0", "filler1"});
  rt.add_worker("w1", {}, {"producer", "filler2", "filler3"});
  rt.add_worker("w2", {}, {"filler4", "filler5"});
  rt.add_worker("w3", {}, {"filler6", "filler7"});
  rt.start();

  EXPECT_TRUE(eventually([&] { return consumer->received() >= kMessages; }));
  rt.stop();
  EXPECT_EQ(consumer->received(), kMessages);
  EXPECT_EQ(consumer->out_of_order(), 0u);
}

// Skewed TSan stress: many always-ready actors homed on one worker, three
// nearly idle workers that can only make progress by stealing. Exercises
// queue push/pop/steal, the parked/queued CAS protocol and the sticky
// enclave switch under real contention.
TEST_F(SchedTest, StealStressSkewedHomeAssignment) {
  RuntimeOptions options;
  options.sched = SchedMode::kSteal;
  Runtime rt(options);
  std::atomic<std::uint64_t> violations{0};

  std::vector<std::string> hot_names;
  for (int i = 0; i < 12; ++i) {
    auto probe = std::make_unique<BurstyProbeActor>("hot" + std::to_string(i));
    probe->violations_ = &violations;
    hot_names.push_back(probe->name());
    rt.add_actor(std::move(probe), "e1");
  }
  // One *idle* token home actor per helper worker: it grants the helper an
  // e1 affinity mask (making the hot actors stealable) and then parks, so
  // the helper's own queues run dry and it must steal to stay busy.
  for (int w = 1; w < 4; ++w) {
    auto probe = std::make_unique<IdleProbeActor>("tok" + std::to_string(w));
    probe->violations_ = &violations;
    rt.add_actor(std::move(probe), "e1");
  }

  rt.add_worker("w0", {}, hot_names);
  rt.add_worker("w1", {}, {"tok1"});
  rt.add_worker("w2", {}, {"tok2"});
  rt.add_worker("w3", {}, {"tok3"});
  rt.start();

  EXPECT_TRUE(eventually([&] {
    const auto& workers = rt.workers();
    std::uint64_t steals = 0;
    for (const auto& w : workers) steals += w->steals();
    std::uint64_t total = 0;
    for (const auto& a : rt.actors()) total += a->invocations();
    return steals > 100 && total > 5000;
  }));
  HealthSnapshot snap = rt.health();
  rt.stop();
  EXPECT_EQ(violations.load(), 0u);

  // Observability: the health snapshot carries the steal counters.
  std::uint64_t snap_steals = 0;
  std::uint64_t snap_dispatches = 0;
  for (const WorkerHealth& w : snap.workers) {
    snap_steals += w.steals;
    snap_dispatches += w.dispatches;
  }
  EXPECT_GT(snap_steals, 0u);
  EXPECT_GT(snap_dispatches, snap_steals);
}

TEST_F(SchedTest, StaticModeLeavesQueuesUnusedAndNeverSteals) {
  Runtime rt;  // default options: SchedMode::kStatic
  std::atomic<std::uint64_t> violations{0};
  auto a = std::make_unique<AffinityProbeActor>("a");
  a->violations_ = &violations;
  AffinityProbeActor* probe = a.get();
  rt.add_actor(std::move(a), "e1");
  rt.add_worker("w0", {}, {"a"});
  rt.start();
  EXPECT_TRUE(eventually([&] { return probe->invocations() > 100; }));
  rt.stop();

  EXPECT_EQ(violations.load(), 0u);
  const Worker& w = *rt.workers().front();
  EXPECT_EQ(w.sched_mode(), SchedMode::kStatic);
  EXPECT_EQ(w.steals(), 0u);
  EXPECT_EQ(w.queue_depth(), 0u);
  EXPECT_GE(w.dispatches(), w.rounds());
}

TEST_F(SchedTest, PriorityDefaultsAndSystemActors) {
  Actor* plain = new AffinityProbeActor("p");
  std::unique_ptr<Actor> guard(plain);
  EXPECT_EQ(plain->priority(), ActorPriority::kNormal);
  plain->set_priority(ActorPriority::kHigh);
  EXPECT_EQ(plain->priority(), ActorPriority::kHigh);

  SupervisorActor sup("sup", {});
  EXPECT_EQ(sup.priority(), ActorPriority::kHigh);

  auto table = std::make_shared<net::SocketTable>();
  concurrent::NodeArena arena(4, 256);
  concurrent::Pool pool;
  pool.adopt(arena);
  net::WriterActor writer("writer", table);
  EXPECT_EQ(writer.priority(), ActorPriority::kHigh);
  net::ReaderActor reader("reader", table, pool);
  EXPECT_EQ(reader.priority(), ActorPriority::kHigh);
}

// A failed actor parks without a queue slot; after the supervisor restarts
// it, only the home poll tick can rediscover it — even if it had migrated
// to another worker when it failed.
TEST_F(SchedTest, RestartedActorIsRediscoveredByHomePoll) {
  class FailOnceActor : public Actor {
   public:
    using Actor::Actor;
    bool body() override {
      if (fail_next_.exchange(false, std::memory_order_relaxed)) {
        throw std::runtime_error("scheduled failure");
      }
      return true;
    }
    std::atomic<bool> fail_next_{false};
  };

  RuntimeOptions options;
  options.sched = SchedMode::kSteal;
  Runtime rt(options);
  auto owned = std::make_unique<FailOnceActor>("victim");
  FailOnceActor* victim = owned.get();
  rt.add_actor(std::move(owned));

  SupervisorActor::Options sup_opts;
  sup_opts.sweep_interval_us = 0;
  sup_opts.default_policy.backoff = BackoffPolicy{0, 0, 4, 0};
  rt.add_actor(std::make_unique<SupervisorActor>("sup", sup_opts));
  rt.add_worker("w0", {}, {"victim", "sup"});
  rt.add_worker("w1", {}, {"sup"});  // second worker: steal + shared-home CAS
  rt.start();

  EXPECT_TRUE(eventually([&] { return victim->invocations() > 50; }));
  const std::uint64_t before = victim->invocations();
  victim->fail_next_.store(true, std::memory_order_relaxed);
  // Failure -> park -> supervisor restart -> home poll re-queue: the actor
  // must come back and keep accumulating invocations.
  EXPECT_TRUE(eventually(
      [&] { return victim->invocations() > before + 100 &&
                   victim->restarts() >= 1; }));
  rt.stop();
  EXPECT_EQ(victim->lifecycle(), ActorState::kRunnable);
}

// A signalling actor that is not Runnable stays parked while its input
// keeps arriving: the home poll wakes only Runnable actors, so its worker
// sees empty rounds and backs off instead of waking it, skipping it and
// parking it again every round. Once restarted, the same poll finds it.
TEST_F(SchedTest, NonRunnableActorWithPendingInputStaysParked) {
  class AlwaysPendingActor : public Actor {
   public:
    using Actor::Actor;
    bool body() override {
      if (fail_next_.exchange(false, std::memory_order_relaxed)) {
        throw std::runtime_error("scheduled failure");
      }
      return false;
    }
    // Input never stops arriving (a net actor under load, say).
    bool has_pending_work() const override { return true; }
    std::atomic<bool> fail_next_{false};
  };

  RuntimeOptions options;
  options.sched = SchedMode::kSteal;
  Runtime rt(options);
  auto owned = std::make_unique<AlwaysPendingActor>("pending");
  AlwaysPendingActor* actor = owned.get();
  rt.add_actor(std::move(owned));
  // The restart waits long enough for the Failed window to be measured.
  SupervisorActor::Options sup_opts;
  sup_opts.sweep_interval_us = 0;
  sup_opts.default_policy.backoff = BackoffPolicy{400'000, 400'000, 1, 0};
  rt.add_actor(std::make_unique<SupervisorActor>("sup", sup_opts));
  const Worker& home = rt.add_worker("w0", {}, {"pending"});
  rt.add_worker("w1", {}, {"sup"});
  rt.start();

  ASSERT_TRUE(eventually([&] { return actor->invocations() > 50; }));
  actor->fail_next_.store(true, std::memory_order_relaxed);
  ASSERT_TRUE(eventually(
      [&] { return actor->lifecycle() == ActorState::kFailed; }));
  std::this_thread::sleep_for(10ms);  // the failing dispatch hands it back
  const std::uint64_t before = home.dispatches();
  std::this_thread::sleep_for(100ms);
  const std::uint64_t during = home.dispatches() - before;
  ASSERT_EQ(actor->restarts(), 0u) << "restarted before the window closed";
  EXPECT_LE(during, 2u) << "the Failed actor kept being woken and skipped";

  const std::uint64_t invoked = actor->invocations();
  EXPECT_TRUE(eventually([&] {
    return actor->restarts() >= 1 && actor->invocations() > invoked + 50;
  }));
  rt.stop();
  EXPECT_EQ(actor->lifecycle(), ActorState::kRunnable);
}

// --- zero-copy sends --------------------------------------------------------

TEST_F(SchedTest, SendNodeIntraEnclaveIsZeroCopy) {
  Runtime rt;
  rt.enclave("e1");
  Channel& ch = rt.channel("c");
  sgxsim::EnclaveId e1 = rt.enclave("e1").id();
  ChannelEnd* a = ch.connect(e1);
  ChannelEnd* b = ch.connect(e1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_FALSE(ch.encrypted());

  concurrent::Node* raw = rt.public_pool().get();
  ASSERT_NE(raw, nullptr);
  raw->fill("zero copies, pointer moves");
  concurrent::NodeLease lease(raw);
  ASSERT_TRUE(a->send_node(std::move(lease)));

  concurrent::NodeLease got = b->recv();
  ASSERT_TRUE(got);
  // Donation, not duplication: the receiver holds the sender's very node.
  EXPECT_EQ(got.get(), raw);
  EXPECT_EQ(got->view(), "zero copies, pointer moves");
  EXPECT_EQ(ch.payload_copies(), 0u);
  EXPECT_EQ(ch.moved_sends(), 1u);

  // The classic copying send still counts.
  ASSERT_TRUE(a->send("copied"));
  EXPECT_EQ(ch.payload_copies(), 1u);
}

TEST_F(SchedTest, SendNodeCrossEnclaveSealsWithOneCopy) {
  Runtime rt;
  sgxsim::EnclaveId e1 = rt.enclave("e1").id();
  sgxsim::EnclaveId e2 = rt.enclave("e2").id();
  Channel& ch = rt.channel("c");
  ChannelEnd* a = ch.connect(e1);
  ChannelEnd* b = ch.connect(e2);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(ch.encrypted());

  concurrent::Node* raw = rt.public_pool().get();
  ASSERT_NE(raw, nullptr);
  raw->fill("crosses the boundary sealed");
  ASSERT_TRUE(a->send_node(concurrent::NodeLease(raw)));
  // The node went onto the wire sealed in place: one staging copy, no move.
  EXPECT_EQ(ch.payload_copies(), 1u);
  EXPECT_EQ(ch.moved_sends(), 0u);

  concurrent::NodeLease got = b->recv();
  ASSERT_TRUE(got);
  EXPECT_EQ(got->view(), "crosses the boundary sealed");
}

// --- worker pinning ----------------------------------------------------------

std::set<std::string> task_ids() {
  std::set<std::string> ids;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

std::string cpus_allowed_list(const std::string& tid) {
  std::ifstream status(test::str_cat("/proc/self/task/", tid, "/status"));
  const std::string key = "Cpus_allowed_list:";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const std::size_t first = line.find_first_not_of(" \t", key.size());
    return first == std::string::npos ? "" : line.substr(first);
  }
  return "";
}

// A new thread inherits its creator's CPU set. start() pins every worker
// before it returns, so no worker waits on a pinned, busy starter's CPU
// for a scheduler tick before it can move to its own (DESIGN.md §14
// "Placement"). The starter pins itself to CPU 0 and, without yielding,
// reads each new thread's allowed CPUs right after start() returns.
TEST_F(SchedTest, WorkersArePinnedBeforeStartReturns) {
  const int ncpu = util::online_cpus();
  if (ncpu < 2) GTEST_SKIP() << "needs at least 2 CPUs";
  std::vector<std::string> want;
  for (int cpu = 1; cpu < ncpu; ++cpu) want.push_back(std::to_string(cpu));
  std::atomic<std::uint64_t> violations{0};
  bool starter_pinned = false;
  std::vector<std::string> got;
  std::thread starter([&] {
    cpu_set_t cpu0;
    CPU_ZERO(&cpu0);
    CPU_SET(0, &cpu0);
    starter_pinned =
        pthread_setaffinity_np(pthread_self(), sizeof(cpu0), &cpu0) == 0;
    if (!starter_pinned) return;
    Runtime rt;
    for (int cpu = 1; cpu < ncpu; ++cpu) {
      const std::string actor = test::str_cat("idle", cpu);
      auto probe = std::make_unique<IdleProbeActor>(actor);
      probe->violations_ = &violations;
      rt.add_actor(std::move(probe));
      rt.add_worker(test::str_cat("w", cpu), {cpu}, {actor});
    }
    const std::set<std::string> before = task_ids();
    rt.start();
    for (const std::string& tid : task_ids()) {
      if (before.count(tid) == 0) got.push_back(cpus_allowed_list(tid));
    }
    rt.stop();
  });
  starter.join();
  ASSERT_TRUE(starter_pinned);
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, want) << "a worker still ran on its starter's CPU set";
  EXPECT_EQ(violations.load(), 0u);
}

// --- run queue unit behaviour -----------------------------------------------

TEST(RunQueueTest, FifoWithLifoFrontAndFilteredSteal) {
  concurrent::RunQueue q;
  q.reserve(4);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.push_back(&a));
  EXPECT_TRUE(q.push_back(&b));
  EXPECT_TRUE(q.push_front(&c));  // fresh wakeup jumps the line
  EXPECT_EQ(q.size(), 3u);

  // Steal takes from the back (the coldest entry)...
  EXPECT_EQ(q.steal_back(nullptr, nullptr), &b);
  // ...and honours the filter: refuse everything -> nullptr, queue intact.
  auto reject_all = [](void*, const void*) { return false; };
  EXPECT_EQ(q.steal_back(reject_all, nullptr), nullptr);
  EXPECT_EQ(q.size(), 2u);

  // Filter that only accepts `c`: steals it from mid-queue, closing the gap.
  auto only_c = [](void* item, const void* want) { return item == want; };
  EXPECT_EQ(q.steal_back(only_c, &c), &c);
  EXPECT_EQ(q.pop_front(), &a);
  EXPECT_EQ(q.pop_front(), nullptr);
  EXPECT_TRUE(q.empty());
}

TEST(RunQueueTest, CapacityBounds) {
  concurrent::RunQueue q;
  q.reserve(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.push_back(&a));
  EXPECT_TRUE(q.push_front(&b));
  EXPECT_FALSE(q.push_back(&c));  // full: refused, not overwritten
  EXPECT_EQ(q.pop_front(), &b);
  EXPECT_EQ(q.pop_front(), &a);
}

}  // namespace
}  // namespace ea::core

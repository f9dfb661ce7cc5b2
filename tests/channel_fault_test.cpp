// Protocol-fault tests for the channel layer (ctest label: fault).
//
// Uses the failpoint subsystem to inject wire corruption and AEAD open
// failures, and checks the contract from DESIGN.md: a bad message is
// dropped and *counted* (auth_failures), the stream never wedges, and every
// node goes back to the pool.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "concurrent/arena.hpp"
#include "concurrent/pool.hpp"
#include "core/channel.hpp"
#include "sgxsim/enclave.hpp"
#include "util/failpoint.hpp"

namespace fp = ea::util::failpoint;

namespace {

using ea::concurrent::NodeArena;
using ea::concurrent::NodeLease;
using ea::concurrent::Pool;

class ChannelFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fp::clear_all();
    fp::reset_counters();
  }
  void TearDown() override { fp::clear_all(); }

  // Builds an encrypted point-to-point channel between two fresh enclaves.
  // Enclave names must be unique per test (the manager is process-global).
  void make_channel(const std::string& tag) {
    auto& mgr = ea::sgxsim::EnclaveManager::instance();
    auto& ea1 = mgr.create("chfault." + tag + ".a");
    auto& ea2 = mgr.create("chfault." + tag + ".b");
    arena_.emplace(16, 512);
    pool_.emplace();
    pool_->adopt(*arena_);
    channel_.emplace("chfault." + tag, ea::core::ChannelOptions{}, *pool_);
    a_ = channel_->connect(ea1.id());
    b_ = channel_->connect(ea2.id());
    ASSERT_NE(a_, nullptr);
    ASSERT_NE(b_, nullptr);
  }

  void expect_pool_full() { EXPECT_EQ(pool_->size(), arena_->count()); }

  std::optional<NodeArena> arena_;
  std::optional<Pool> pool_;
  std::optional<ea::core::Channel> channel_;
  ea::core::ChannelEnd* a_ = nullptr;
  ea::core::ChannelEnd* b_ = nullptr;
};

std::string as_string(const NodeLease& m) {
  return std::string(reinterpret_cast<const char*>(m->payload()), m->size);
}

TEST_F(ChannelFaultTest, CorruptedMessageDroppedNextOneDelivers) {
  make_channel("corrupt");
  ASSERT_TRUE(channel_->encrypted());

  ASSERT_TRUE(a_->send("first"));
  ASSERT_TRUE(a_->send("second"));
  ASSERT_TRUE(fp::set("channel.recv.corrupt", "once"));

  // The corrupted node fails authentication and is dropped; the receiver
  // sees an empty lease, not garbage plaintext.
  NodeLease m = b_->recv();
  EXPECT_FALSE(m);
  EXPECT_EQ(channel_->auth_failures(), 1u);

  // The stream is not wedged: the next message decrypts normally.
  m = b_->recv();
  ASSERT_TRUE(m);
  EXPECT_EQ(as_string(m), "second");
  m.reset();
  EXPECT_EQ(channel_->frame_errors(), 0u);
  expect_pool_full();
}

TEST_F(ChannelFaultTest, AeadOpenFailureDropsOnlyThatMessage) {
  make_channel("aeadopen");
  ASSERT_TRUE(channel_->encrypted());

  ASSERT_TRUE(a_->send("alpha"));
  ASSERT_TRUE(a_->send("beta"));
  // Fail inside the crypto layer itself (covers open_framed_in_place): the
  // ciphertext is intact but the open reports failure, e.g. a transient
  // hardware-AEAD engine error.
  ASSERT_TRUE(fp::set("crypto.aead.open", "once"));

  EXPECT_FALSE(b_->recv());
  EXPECT_EQ(channel_->auth_failures(), 1u);
  NodeLease m = b_->recv();
  ASSERT_TRUE(m);
  EXPECT_EQ(as_string(m), "beta");
  m.reset();
  expect_pool_full();
}

TEST_F(ChannelFaultTest, ProbabilisticCorruptionConservesEveryMessage) {
  make_channel("soak");
  ASSERT_TRUE(channel_->encrypted());

  // 50% of receives see a flipped ciphertext byte. Every send must end up
  // either delivered intact or counted as an auth failure — nothing is
  // silently lost, duplicated, or delivered corrupted.
  ASSERT_TRUE(fp::set("channel.recv.corrupt", "50%return"));
  constexpr int kMessages = 40;
  int delivered = 0;
  for (int i = 0; i < kMessages; ++i) {
    std::string body = "soak-" + std::to_string(i);
    ASSERT_TRUE(a_->send(body));
    NodeLease m = b_->recv();
    if (m) {
      EXPECT_EQ(as_string(m), body);
      ++delivered;
    }
  }
  fp::clear("channel.recv.corrupt");
  const auto dropped =
      static_cast<int>(channel_->auth_failures());
  EXPECT_EQ(delivered + dropped, kMessages);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(delivered, 0);
  expect_pool_full();
}

}  // namespace

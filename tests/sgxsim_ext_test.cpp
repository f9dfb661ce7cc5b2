// Tests for the sgxsim extensions: remote attestation, monotonic-counter
// rollback protection, and HotCalls-style asynchronous calls.
#include <gtest/gtest.h>

#include <thread>

#include "sgxsim/cost_model.hpp"
#include "sgxsim/hotcalls.hpp"
#include "sgxsim/monotonic_counter.hpp"
#include "sgxsim/remote_attestation.hpp"
#include "sgxsim/transition.hpp"
#include "util/bytes.hpp"

namespace ea::sgxsim {
namespace {

class SgxExtTest : public ::testing::Test {
 protected:
  SgxExtTest() {
    cost_model().ecall_cycles = 100;
    cost_model().ocall_cycles = 100;
  }
  ScopedCostModel scoped_;
};

// --- remote attestation ------------------------------------------------------

TEST_F(SgxExtTest, QuoteVerifies) {
  Enclave& e = EnclaveManager::instance().create("ra-good");
  util::Bytes report_data = util::to_bytes("dh-public-value");
  Quote quote = create_quote(e, report_data, /*nonce=*/42);

  AttestationVerifier verifier;
  EXPECT_TRUE(verifier.verify(quote, 42));
  EXPECT_TRUE(verifier.verify_measurement(quote, 42, e.measurement()));
}

TEST_F(SgxExtTest, QuoteReportDataRoundTrips) {
  Enclave& e = EnclaveManager::instance().create("ra-data");
  util::Bytes report_data = util::to_bytes("key-exchange-material");
  Quote quote = create_quote(e, report_data, 1);
  EXPECT_EQ(std::memcmp(quote.report_data.data(), report_data.data(),
                        report_data.size()),
            0);
  // Remaining bytes are zero padded.
  for (std::size_t i = report_data.size(); i < kReportDataSize; ++i) {
    EXPECT_EQ(quote.report_data[i], 0);
  }
}

TEST_F(SgxExtTest, StaleNonceRejected) {
  Enclave& e = EnclaveManager::instance().create("ra-nonce");
  Quote quote = create_quote(e, {}, 7);
  AttestationVerifier verifier;
  EXPECT_FALSE(verifier.verify(quote, 8));  // replayed under a new nonce
}

TEST_F(SgxExtTest, TamperedQuoteRejected) {
  Enclave& e = EnclaveManager::instance().create("ra-tamper");
  Quote quote = create_quote(e, util::to_bytes("data"), 3);
  AttestationVerifier verifier;

  Quote bad = quote;
  bad.measurement[0] ^= 1;  // claim different code identity
  EXPECT_FALSE(verifier.verify(bad, 3));

  bad = quote;
  bad.report_data[0] ^= 1;  // swap in attacker key material
  EXPECT_FALSE(verifier.verify(bad, 3));

  bad = quote;
  bad.signature[0] ^= 1;
  EXPECT_FALSE(verifier.verify(bad, 3));
}

TEST_F(SgxExtTest, WrongMeasurementRejected) {
  Enclave& a = EnclaveManager::instance().create("ra-a");
  Enclave& b = EnclaveManager::instance().create("ra-b");
  Quote quote = create_quote(a, {}, 1);
  AttestationVerifier verifier;
  EXPECT_TRUE(verifier.verify(quote, 1));
  EXPECT_FALSE(verifier.verify_measurement(quote, 1, b.measurement()));
}

// --- monotonic counters / rollback protection ---------------------------------

TEST_F(SgxExtTest, CounterMonotonicPerEnclaveAndSlot) {
  auto& svc = MonotonicCounterService::instance();
  Enclave& a = EnclaveManager::instance().create("mc-a");
  Enclave& b = EnclaveManager::instance().create("mc-b");

  EXPECT_EQ(svc.read(a, 0), 0u);
  EXPECT_EQ(svc.increment(a, 0), 1u);
  EXPECT_EQ(svc.increment(a, 0), 2u);
  EXPECT_EQ(svc.read(a, 0), 2u);
  // Independent per slot and per enclave identity.
  EXPECT_EQ(svc.read(a, 1), 0u);
  EXPECT_EQ(svc.read(b, 0), 0u);
}

TEST_F(SgxExtTest, RollbackProtectedSealingAcceptsFresh) {
  Enclave& e = EnclaveManager::instance().create("mc-fresh");
  util::Bytes state = util::to_bytes("balance=100");
  util::Bytes sealed = seal_with_rollback_protection(e, 5, state);
  auto out = unseal_with_rollback_protection(e, 5, sealed);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, state);
}

TEST_F(SgxExtTest, RollbackDetected) {
  Enclave& e = EnclaveManager::instance().create("mc-rollback");
  util::Bytes v1 = seal_with_rollback_protection(e, 9, util::to_bytes("v1"));
  util::Bytes v2 = seal_with_rollback_protection(e, 9, util::to_bytes("v2"));
  // The latest blob unseals; the rolled-back one is rejected even though
  // its MAC is valid.
  EXPECT_TRUE(unseal_with_rollback_protection(e, 9, v2).has_value());
  EXPECT_FALSE(unseal_with_rollback_protection(e, 9, v1).has_value());
}

TEST_F(SgxExtTest, RollbackProtectionBoundToIdentity) {
  Enclave& a = EnclaveManager::instance().create("mc-id-a");
  Enclave& b = EnclaveManager::instance().create("mc-id-b");
  util::Bytes sealed = seal_with_rollback_protection(a, 0, util::to_bytes("x"));
  EXPECT_FALSE(unseal_with_rollback_protection(b, 0, sealed).has_value());
}

// --- HotCalls -------------------------------------------------------------------

TEST_F(SgxExtTest, HotCallExecutesInsideEnclave) {
  Enclave& e = EnclaveManager::instance().create("hc-basic");
  std::atomic<EnclaveId> observed{kUntrusted};
  HotCallService service(e, [&](std::uint64_t op, void* data) {
    observed.store(current_enclave());
    *static_cast<std::uint64_t*>(data) = op * 2;
  });

  std::uint64_t value = 0;
  service.call(21, &value);
  EXPECT_EQ(value, 42u);
  EXPECT_EQ(observed.load(), e.id());
  EXPECT_EQ(service.calls_served(), 1u);
}

TEST_F(SgxExtTest, HotCallsAvoidPerCallTransitions) {
  Enclave& e = EnclaveManager::instance().create("hc-count");
  HotCallService service(e, [](std::uint64_t, void* data) {
    ++*static_cast<std::uint64_t*>(data);
  });
  // Let the responder enter its enclave, then count.
  std::uint64_t counter = 0;
  service.call(0, &counter);
  reset_transition_stats();
  for (int i = 0; i < 100; ++i) service.call(0, &counter);
  EXPECT_EQ(counter, 101u);
  // No ECalls were needed for the 100 calls (the responder is resident).
  EXPECT_EQ(transition_stats().ecalls, 0u);
}

TEST_F(SgxExtTest, HotCallsSequentialConsistency) {
  Enclave& e = EnclaveManager::instance().create("hc-seq");
  std::vector<std::uint64_t> log;
  HotCallService service(e, [&](std::uint64_t op, void*) {
    log.push_back(op);
  });
  for (std::uint64_t i = 0; i < 50; ++i) service.call(i, nullptr);
  ASSERT_EQ(log.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(log[i], i);
}

}  // namespace
}  // namespace ea::sgxsim

// --- attested X25519 key exchange ------------------------------------------------

#include "sgxsim/attested_exchange.hpp"

namespace ea::sgxsim {
namespace {

class AttestedExchangeTest : public ::testing::Test {
 protected:
  AttestedExchangeTest() {
    cost_model().ecall_cycles = 10;
    cost_model().ocall_cycles = 10;
  }
  ScopedCostModel scoped_;
};

TEST_F(AttestedExchangeTest, BothSidesDeriveSameKey) {
  Enclave& a = EnclaveManager::instance().create("ax-a");
  Enclave& b = EnclaveManager::instance().create("ax-b");
  AttestationVerifier verifier;

  std::uint64_t nonce_a = 111, nonce_b = 222;
  AttestedExchange ex_a(a, nonce_b);  // a's quote answers b's nonce
  AttestedExchange ex_b(b, nonce_a);

  auto key_a = ex_a.complete(ex_b.quote(), nonce_a, verifier);
  auto key_b = ex_b.complete(ex_a.quote(), nonce_b, verifier);
  ASSERT_TRUE(key_a.has_value());
  ASSERT_TRUE(key_b.has_value());
  EXPECT_EQ(*key_a, *key_b);
}

TEST_F(AttestedExchangeTest, MitmSubstitutionDetected) {
  Enclave& a = EnclaveManager::instance().create("ax-m1");
  Enclave& b = EnclaveManager::instance().create("ax-m2");
  AttestationVerifier verifier;
  AttestedExchange ex_a(a, 2);
  AttestedExchange ex_b(b, 1);

  // The attacker swaps in its own public key: the quote MAC no longer
  // matches, so the handshake aborts.
  Quote tampered = ex_b.quote();
  crypto::X25519Key evil = crypto::x25519_base(crypto::x25519_keygen());
  std::memcpy(tampered.report_data.data(), evil.data(), evil.size());
  EXPECT_FALSE(ex_a.complete(tampered, 1, verifier).has_value());
}

TEST_F(AttestedExchangeTest, MeasurementPinningEnforced) {
  Enclave& a = EnclaveManager::instance().create("ax-p1");
  Enclave& b = EnclaveManager::instance().create("ax-p2");
  Enclave& imposter = EnclaveManager::instance().create("ax-imp");
  AttestationVerifier verifier;
  AttestedExchange ex_a(a, 2);
  AttestedExchange ex_imp(imposter, 1);

  // a expects to talk to b's code identity; the imposter's (valid!) quote
  // carries a different measurement and is rejected.
  crypto::Sha256Digest expected = b.measurement();
  EXPECT_FALSE(
      ex_a.complete(ex_imp.quote(), 1, verifier, &expected).has_value());
  // Without pinning the imposter's quote is accepted (it is a genuine
  // enclave, just not the one we wanted).
  EXPECT_TRUE(ex_a.complete(ex_imp.quote(), 1, verifier).has_value());
}

TEST_F(AttestedExchangeTest, ReplayedQuoteRejected) {
  Enclave& a = EnclaveManager::instance().create("ax-r1");
  Enclave& b = EnclaveManager::instance().create("ax-r2");
  AttestationVerifier verifier;
  AttestedExchange ex_a(a, 9);
  AttestedExchange ex_b(b, 8);
  // a's nonce for this session is 8; a quote created for nonce 7 (an old
  // session) must not complete.
  EXPECT_FALSE(ex_a.complete(ex_b.quote(), 7, verifier).has_value());
}

TEST_F(AttestedExchangeTest, LowOrderPeerKeyRejected) {
  Enclave& a = EnclaveManager::instance().create("ax-lo1");
  Enclave& b = EnclaveManager::instance().create("ax-lo2");
  AttestationVerifier verifier;
  AttestedExchange ex_a(a, 4);
  // Each u lies in the curve's small-order subgroup (or its twist's), so
  // the ECDH output is all zero whatever a's key is. The quote is genuine:
  // only the all-zero-secret check can refuse it.
  const char* low_order[] = {
      "0000000000000000000000000000000000000000000000000000000000000000",
      "0100000000000000000000000000000000000000000000000000000000000000",
      "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
      "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      "edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      "eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
  };
  for (const char* u : low_order) {
    Quote quote = create_quote(b, util::from_hex(u), /*nonce=*/3);
    ASSERT_TRUE(verifier.verify(quote, 3)) << u;
    EXPECT_FALSE(ex_a.complete(quote, 3, verifier).has_value()) << u;
  }
}

}  // namespace
}  // namespace ea::sgxsim

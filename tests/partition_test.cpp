#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "core/runtime.hpp"
#include "partition/actors.hpp"
#include "partition/record.hpp"
#include "sgxsim/cost_model.hpp"
#include "str_cat.hpp"

namespace ea::partition {
namespace {

using namespace std::chrono_literals;
using test::str_cat;

// --- Record wire format --------------------------------------------------------

TEST(RecordTest, RoundTrip) {
  Record record;
  record.set("user", "alice");
  record.set("lat", "48.85");
  auto parsed = Record::parse(record.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed->get("user"), "alice");
  EXPECT_EQ(*parsed->get("lat"), "48.85");
  EXPECT_EQ(parsed->get("missing"), nullptr);
}

TEST(RecordTest, EscapesMetacharacters) {
  Record record;
  record.set("v", "a=b\nc%d");
  auto parsed = Record::parse(record.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed->get("v"), "a=b\nc%d");
}

TEST(RecordTest, RejectsGarbage) {
  EXPECT_FALSE(Record::parse("no equals sign\n").has_value());
  EXPECT_FALSE(Record::parse("k=%zz\n").has_value());
  EXPECT_FALSE(Record::parse("unterminated=line").has_value());
}

TEST(RecordTest, AuditTracksFieldNames) {
  Record record;
  record.set("user", "alice");
  FieldAudit audit;
  audit.observe(record);
  EXPECT_TRUE(audit.saw("user"));
  EXPECT_FALSE(audit.saw("lat"));
}

// --- the full service ------------------------------------------------------------

class PrivateQueryTest : public ::testing::Test {
 protected:
  PrivateQueryTest() {
    sgxsim::cost_model().ecall_cycles = 100;
    sgxsim::cost_model().ocall_cycles = 100;
  }
  sgxsim::ScopedCostModel scoped_;

  static std::optional<Record> run_query(core::Runtime& rt,
                                         QueryService& service,
                                         const Record& request) {
    concurrent::Node* node = rt.public_pool().get();
    if (node == nullptr) return std::nullopt;
    std::string wire = request.serialize();
    node->fill(wire);
    service.requests->push(node);
    auto deadline = std::chrono::steady_clock::now() + 10s;
    while (std::chrono::steady_clock::now() < deadline) {
      if (concurrent::Node* result = service.results->pop()) {
        concurrent::NodeLease lease(result);
        return Record::parse(result->view());
      }
      std::this_thread::sleep_for(1ms);
    }
    return std::nullopt;
  }
};

TEST_F(PrivateQueryTest, EndToEndQueryReturnsMatchingPois) {
  core::Runtime rt;
  QueryService service = install_private_query(rt);
  rt.start();

  crypto::AeadKey reply_key;
  // Location (2.5, 3.5) lies in cell 2,3 (lon->x, lat->y with 1-degree
  // cells).
  Record request =
      make_query_request("r1", "alice", 3.5, 2.5, "cafe", reply_key);
  auto result = run_query(rt, service, request);
  rt.stop();

  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result->get("req"), "r1");
  EXPECT_EQ(*result->get("user"), "alice");
  auto plaintext = open_query_result(*result, reply_key);
  ASSERT_TRUE(plaintext.has_value());
  // Every returned POI is a cafe in cell 2,3 (names embed category+cell).
  if (!plaintext->empty()) {
    std::size_t pos = 0;
    while (pos < plaintext->size()) {
      std::size_t eol = plaintext->find('\n', pos);
      std::string name = plaintext->substr(
          pos, eol == std::string::npos ? std::string::npos : eol - pos);
      EXPECT_EQ(name.rfind("cafe-2,3-", 0), 0u) << name;
      if (eol == std::string::npos) break;
      pos = eol + 1;
    }
  }
}

TEST_F(PrivateQueryTest, ResultsMatchDatabaseGroundTruth) {
  core::Runtime rt;
  QueryServiceConfig config;
  config.grid = 4;
  config.pois_per_cell = 5;
  QueryService service = install_private_query(rt, config);
  rt.start();

  crypto::AeadKey reply_key;
  Record request =
      make_query_request("r2", "bob", 1.5, 1.5, "doctor", reply_key);
  auto result = run_query(rt, service, request);
  ASSERT_TRUE(result.has_value());
  auto plaintext = open_query_result(*result, reply_key);
  ASSERT_TRUE(plaintext.has_value());

  // Count doctors in cell 1,1 straight from the database.
  int expected = 0;
  for (const Poi& poi : service.query->database()) {
    if (poi.cell_x == 1 && poi.cell_y == 1 && poi.category == "doctor") {
      ++expected;
    }
  }
  int got = plaintext->empty()
                ? 0
                : 1 + static_cast<int>(
                          std::count(plaintext->begin(), plaintext->end(), '\n'));
  EXPECT_EQ(got, expected);
  rt.stop();
}

TEST_F(PrivateQueryTest, PartitioningHoldsAcrossManyQueries) {
  core::Runtime rt;
  QueryService service = install_private_query(rt);
  rt.start();

  for (int i = 0; i < 10; ++i) {
    crypto::AeadKey reply_key;
    Record request = make_query_request(
        str_cat("q", i), str_cat("user", i % 3),
        0.5 + i % 4, 0.5 + i % 4, i % 2 == 0 ? "fuel" : "pharmacy",
        reply_key);
    auto result = run_query(rt, service, request);
    ASSERT_TRUE(result.has_value()) << i;
    EXPECT_TRUE(open_query_result(*result, reply_key).has_value()) << i;
  }
  rt.stop();

  // The privacy audit: no partition enclave saw fields outside its slice.
  const FieldAudit& identity = service.identity->audit();
  EXPECT_TRUE(identity.saw("user"));
  EXPECT_FALSE(identity.saw("lat"));
  EXPECT_FALSE(identity.saw("lon"));
  EXPECT_FALSE(identity.saw("cell"));
  EXPECT_FALSE(identity.saw("query"));
  EXPECT_FALSE(identity.saw("reply_key"));

  const FieldAudit& location = service.location->audit();
  EXPECT_TRUE(location.saw("lat"));
  EXPECT_FALSE(location.saw("user"));
  EXPECT_FALSE(location.saw("query"));
  EXPECT_FALSE(location.saw("result"));

  const FieldAudit& query = service.query->audit();
  EXPECT_TRUE(query.saw("query"));
  EXPECT_TRUE(query.saw("cell"));       // coarse cell only...
  EXPECT_FALSE(query.saw("lat"));       // ...never exact coordinates
  EXPECT_FALSE(query.saw("user"));      // pseudonym only
  EXPECT_TRUE(query.saw("pseudonym"));
}

TEST_F(PrivateQueryTest, ResultCiphertextUnreadableWithoutReplyKey) {
  core::Runtime rt;
  QueryService service = install_private_query(rt);
  rt.start();
  crypto::AeadKey reply_key;
  Record request =
      make_query_request("r3", "carol", 2.5, 2.5, "fuel", reply_key);
  auto result = run_query(rt, service, request);
  rt.stop();
  ASSERT_TRUE(result.has_value());

  crypto::AeadKey wrong_key{};
  wrong_key[0] = 0x99;
  EXPECT_FALSE(open_query_result(*result, wrong_key).has_value());
  EXPECT_TRUE(open_query_result(*result, reply_key).has_value());
}

TEST_F(PrivateQueryTest, PartitionChannelsToEnclavesAreEncrypted) {
  core::Runtime rt;
  QueryService service = install_private_query(rt);
  (void)service;
  rt.start();
  // Enclave-to-enclave links encrypt transparently; frontend links stay
  // plain (the frontend is the untrusted splitter — the *split* is the
  // mechanism there, not encryption).
  EXPECT_TRUE(rt.channel("pq.identity-query").encrypted());
  EXPECT_TRUE(rt.channel("pq.location-query").encrypted());
  EXPECT_TRUE(rt.channel("pq.query-identity").encrypted());
  EXPECT_FALSE(rt.channel("pq.frontend-identity").encrypted());
  rt.stop();
}

}  // namespace
}  // namespace ea::partition

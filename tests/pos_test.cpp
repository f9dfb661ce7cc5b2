#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <map>
#include <ostream>
#include <thread>

#include "crypto/rng.hpp"
#include "pos/cleaner_actor.hpp"
#include "pos/encrypted.hpp"
#include "pos/pos.hpp"
#include "sgxsim/cost_model.hpp"
#include "sgxsim/enclave.hpp"
#include "str_cat.hpp"
#include "util/bytes.hpp"

namespace ea::pos {
namespace {

using util::Bytes;
using util::to_bytes;
using test::str_cat;

PosOptions small_options() {
  PosOptions options;
  options.entry_count = 64;
  options.entry_payload = 128;
  options.bucket_count = 8;
  return options;
}

TEST(Pos, SetGetRoundTrip) {
  Pos store(small_options());
  EXPECT_TRUE(store.set(to_bytes("alice"), to_bytes("online")));
  auto value = store.get(to_bytes("alice"));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(util::to_string(*value), "online");
}

TEST(Pos, MissingKeyReturnsNullopt) {
  Pos store(small_options());
  EXPECT_FALSE(store.get(to_bytes("ghost")).has_value());
}

TEST(Pos, EmptyKeyRejected) {
  Pos store(small_options());
  EXPECT_FALSE(store.set({}, to_bytes("v")));
}

TEST(Pos, EmptyValueAllowed) {
  Pos store(small_options());
  EXPECT_TRUE(store.set(to_bytes("k"), {}));
  auto value = store.get(to_bytes("k"));
  ASSERT_TRUE(value.has_value());
  EXPECT_TRUE(value->empty());
}

TEST(Pos, OversizedPairRejected) {
  Pos store(small_options());
  Bytes big(200, 0x7);
  EXPECT_FALSE(store.set(to_bytes("k"), big));
}

TEST(Pos, UpdateReturnsNewestVersion) {
  Pos store(small_options());
  store.set(to_bytes("k"), to_bytes("v1"));
  store.set(to_bytes("k"), to_bytes("v2"));
  store.set(to_bytes("k"), to_bytes("v3"));
  EXPECT_EQ(util::to_string(*store.get(to_bytes("k"))), "v3");
}

TEST(Pos, UpdatesConsumeEntriesUntilCleaned) {
  PosOptions options = small_options();
  options.entry_count = 4;
  Pos store(options);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(store.set(to_bytes("k"), to_bytes(str_cat("v", i))));
  }
  // All four entries hold versions of "k"; the store is full.
  EXPECT_FALSE(store.set(to_bytes("k"), to_bytes("v4")));
  PosStats stats = store.stats();
  EXPECT_EQ(stats.live, 1u);
  EXPECT_EQ(stats.outdated, 3u);
}

TEST(Pos, CleanerDefersFreeUntilSectionLeaves) {
  Pos store(small_options());
  store.set(to_bytes("k"), to_bytes("v1"));
  store.set(to_bytes("k"), to_bytes("v2"));

  // A pinned section models an in-flight reader: the superseded version is
  // gathered into a retirement batch, but the batch can never reach its
  // safety horizon (retire epoch + 2) while the section's announcement
  // blocks the second advance.
  store.epoch_enter();
  EXPECT_EQ(store.clean_step(), 0u);  // gather; first advance still allowed
  EXPECT_EQ(store.stats().retired, 1u);
  EXPECT_EQ(store.clean_step(), 0u);  // second advance blocked: no free
  EXPECT_EQ(store.clean_step(), 0u);
  EXPECT_EQ(store.stats().retired, 1u);
  store.epoch_leave();
  EXPECT_EQ(store.clean_step(), 1u);  // horizon passes: batch freed
  EXPECT_EQ(store.stats().retired, 0u);
  EXPECT_EQ(store.stats().outdated, 0u);
  EXPECT_EQ(util::to_string(*store.get(to_bytes("k"))), "v2");
}

TEST(Pos, CleanerWithNoSectionsFreesInTwoSteps) {
  Pos store(small_options());
  store.set(to_bytes("k"), to_bytes("v1"));
  store.set(to_bytes("k"), to_bytes("v2"));
  EXPECT_EQ(store.clean_step(), 0u);  // gather + first advance
  EXPECT_EQ(store.clean_step(), 1u);  // second advance passes the horizon
}

TEST(Pos, PressureCleaningRecyclesWithoutACleanerThread) {
  PosOptions options = small_options();
  options.entry_count = 4;
  options.clean_on_pressure = true;
  Pos store(options);
  // Every overwrite past the 4th must reclaim a superseded version inline;
  // no explicit clean_step() calls and no cleaner thread anywhere.
  for (int i = 0; i < 12; ++i) {
    EXPECT_TRUE(store.set(to_bytes("k"), to_bytes(str_cat("v", i))))
        << "overwrite " << i;
  }
  EXPECT_EQ(util::to_string(*store.get(to_bytes("k"))), "v11");
  // A store with nothing outdated is still honestly full: a second key
  // cannot displace the live versions.
  Pos strict(options);
  std::uint8_t pad[1] = {0};
  for (int i = 0; i < 4; ++i) {
    std::uint8_t key[1] = {static_cast<std::uint8_t>(i)};
    EXPECT_TRUE(strict.set(key, pad));
  }
  std::uint8_t fifth[1] = {4};
  EXPECT_FALSE(strict.set(fifth, pad));
}

TEST(Pos, CleanerRecyclesIntoFreeList) {
  PosOptions options = small_options();
  options.entry_count = 4;
  Pos store(options);
  for (int i = 0; i < 4; ++i) {
    store.set(to_bytes("k"), to_bytes(str_cat("v", i)));
  }
  EXPECT_FALSE(store.set(to_bytes("k"), to_bytes("overflow")));
  store.clean_step();
  store.clean_step();
  EXPECT_TRUE(store.set(to_bytes("k"), to_bytes("fits-again")));
  EXPECT_EQ(util::to_string(*store.get(to_bytes("k"))), "fits-again");
}

TEST(Pos, EraseHidesKeyAfterCleaning) {
  Pos store(small_options());
  store.set(to_bytes("k"), to_bytes("v"));
  EXPECT_TRUE(store.erase(to_bytes("k")));
  EXPECT_FALSE(store.erase(to_bytes("k")));
  store.clean_step();
  store.clean_step();
  EXPECT_FALSE(store.get(to_bytes("k")).has_value());
}

TEST(Pos, ManyKeysAcrossBuckets) {
  PosOptions options;
  options.entry_count = 512;
  options.entry_payload = 64;
  options.bucket_count = 32;
  Pos store(options);
  for (int i = 0; i < 300; ++i) {
    std::string key = "key-" + std::to_string(i);
    ASSERT_TRUE(store.set(to_bytes(key), to_bytes(std::to_string(i * 3))));
  }
  for (int i = 0; i < 300; ++i) {
    std::string key = "key-" + std::to_string(i);
    auto value = store.get(to_bytes(key));
    ASSERT_TRUE(value.has_value()) << key;
    EXPECT_EQ(util::to_string(*value), std::to_string(i * 3));
  }
}

TEST(Pos, PersistsAcrossRemap) {
  std::string path = "/tmp/ea_pos_test_" + std::to_string(::getpid()) + ".img";
  ::unlink(path.c_str());
  {
    PosOptions options = small_options();
    options.path = path;
    Pos store(options);
    store.set(to_bytes("persistent"), to_bytes("yes"));
    store.persist();
  }
  {
    PosOptions options = small_options();
    options.path = path;
    Pos store(options);
    auto value = store.get(to_bytes("persistent"));
    ASSERT_TRUE(value.has_value());
    EXPECT_EQ(util::to_string(*value), "yes");
  }
  ::unlink(path.c_str());
}

TEST(Pos, ReopenRejectsCorruptSuperblock) {
  std::string path = "/tmp/ea_pos_bad_" + std::to_string(::getpid()) + ".img";
  ::unlink(path.c_str());
  {
    PosOptions options = small_options();
    options.path = path;
    Pos store(options);
    store.persist();
  }
  // Corrupt the magic.
  FILE* f = ::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  char zero[8] = {};
  ::fwrite(zero, 1, sizeof(zero), f);
  ::fclose(f);
  PosOptions options = small_options();
  options.path = path;
  EXPECT_THROW(Pos store(options), std::runtime_error);
  ::unlink(path.c_str());
}

TEST(Pos, ConcurrentSetGetLinearisable) {
  PosOptions options;
  options.entry_count = 2048;
  options.entry_payload = 64;
  Pos store(options);
  store.set(to_bytes("shared"), to_bytes("0"));

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 1; i <= 500; ++i) {
      store.set(to_bytes("shared"), to_bytes(std::to_string(i)));
    }
    stop.store(true);
  });

  // Readers must always observe some previously written value, never
  // garbage, and values must be monotonically non-decreasing per reader
  // (each get starts after the previous returned).
  int last = 0;
  while (!stop.load()) {
    auto value = store.get(to_bytes("shared"));
    ASSERT_TRUE(value.has_value());
    int seen = std::stoi(util::to_string(*value));
    EXPECT_GE(seen, last);
    last = seen;
  }
  writer.join();
  EXPECT_EQ(util::to_string(*store.get(to_bytes("shared"))), "500");
}

// Property test: random operations mirrored against std::map.
class PosModelCheck : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PosModelCheck, MatchesStdMapModel) {
  PosOptions options;
  options.entry_count = 4096;
  options.entry_payload = 64;
  Pos store(options);
  std::map<std::string, std::string> model;
  crypto::FastRng rng(GetParam());

  for (int op = 0; op < 2000; ++op) {
    std::string key = str_cat("k", rng.next_below(40));
    switch (rng.next_below(4)) {
      case 0:
      case 1: {  // set
        std::string value = str_cat("v", rng.next());
        ASSERT_TRUE(store.set(to_bytes(key), to_bytes(value)));
        model[key] = value;
        break;
      }
      case 2: {  // get
        auto got = store.get(to_bytes(key));
        auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_FALSE(got.has_value()) << key;
        } else {
          ASSERT_TRUE(got.has_value()) << key;
          EXPECT_EQ(util::to_string(*got), it->second);
        }
        break;
      }
      case 3: {  // occasionally clean
        store.clean_step();
        break;
      }
    }
  }
  // Final sweep.
  for (const auto& [key, value] : model) {
    auto got = store.get(to_bytes(key));
    ASSERT_TRUE(got.has_value()) << key;
    EXPECT_EQ(util::to_string(*got), value);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PosModelCheck,
                         ::testing::Values(1, 2, 3, 42, 1337));

// --- hostile host: the mapped superblock is host memory ----------------------
//
// A second MAP_SHARED mapping of the store's file stands in for the host. It
// rewrites one geometry field of the superblock after the store opened;
// set, get, erase, the cleaner and stats() must keep the layout the store
// opened with, and integrity_error() must report the rewrite.

struct SuperblockField {
  const char* name;
  std::size_t offset;  // on-file superblock layout (pos.cpp)
  std::size_t width;
  std::uint64_t hostile;
};

// Names the field in the discovered test name instead of its raw bytes.
void PrintTo(const SuperblockField& field, std::ostream* os) {
  *os << field.name;
}

class PosHostileHost : public ::testing::TestWithParam<SuperblockField> {};

TEST_P(PosHostileHost, OperationsKeepTheOpenedGeometry) {
  const SuperblockField& field = GetParam();
  const std::string path =
      str_cat("/tmp/ea_pos_hostile_", ::getpid(), "_", field.name, ".img");
  ::unlink(path.c_str());
  PosOptions options = small_options();  // 8 buckets, 64 entries of 128 B
  options.path = path;
  options.free_shards = 2;
  Pos store(options);
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(store.set(to_bytes(str_cat("k", i)), to_bytes("v")));
  }

  const int fd = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(fd, 0);
  void* host = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ASSERT_NE(host, MAP_FAILED);
  auto* sb = static_cast<std::uint8_t*>(host);
  if (field.width == 4) {
    util::store_le32(sb + field.offset,
                     static_cast<std::uint32_t>(field.hostile));
  } else {
    util::store_le64(sb + field.offset, field.hostile);
  }

  EXPECT_EQ(store.bucket_count(), 8u);
  EXPECT_EQ(store.entry_payload(), 128u);
  EXPECT_EQ(store.free_shard_count(), 2u);
  for (int i = 0; i < 16; ++i) {
    const Bytes key = to_bytes(str_cat("k", i));
    ASSERT_TRUE(store.set(key, to_bytes(str_cat("w", i))));
    auto got = store.get(key);
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_EQ(util::to_string(*got), str_cat("w", i));
  }
  EXPECT_FALSE(store.set(to_bytes("big"), Bytes(126, 0x7)));  // 129 > 128
  EXPECT_TRUE(store.erase(to_bytes("k0")));
  EXPECT_FALSE(store.get(to_bytes("k0")).has_value());
  for (int step = 0; step < 3; ++step) store.clean_step();
  const PosStats stats = store.stats();
  EXPECT_EQ(stats.live, 15u);
  EXPECT_EQ(stats.live + stats.outdated + stats.retired + stats.free, 64u);
  EXPECT_EQ(stats.free, stats.free_listed + stats.in_magazine);
  EXPECT_EQ(store.integrity_error(),
            std::optional<std::string>("superblock geometry changed since open"));

  ::munmap(host, 4096);
  ::close(fd);
  ::unlink(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    SuperblockFields, PosHostileHost,
    ::testing::Values(SuperblockField{"bucket_count", 12, 4, 1u << 20},
                      SuperblockField{"entry_count", 16, 4, 1u << 20},
                      SuperblockField{"entry_payload", 20, 4, 1u << 20},
                      SuperblockField{"free_shard_count", 24, 4, 1u << 20},
                      SuperblockField{"entry_stride", 32, 8, 1ull << 40},
                      SuperblockField{"buckets_off", 40, 8, 1ull << 40},
                      SuperblockField{"free_off", 48, 8, 1ull << 40},
                      SuperblockField{"entries_off", 56, 8, 1ull << 40}),
    [](const ::testing::TestParamInfo<SuperblockField>& field) {
      return std::string(field.param.name);
    });

// --- encrypted view -----------------------------------------------------------

TEST(EncryptedPos, RoundTrip) {
  Pos store(small_options());
  Bytes master(32, 0x5a);
  EncryptedPos enc(store, master);
  EXPECT_TRUE(enc.set(to_bytes("alice"), to_bytes("secret-profile")));
  auto value = enc.get(to_bytes("alice"));
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(util::to_string(*value), "secret-profile");
}

TEST(EncryptedPos, PlaintextNeverStored) {
  PosOptions options = small_options();
  Pos store(options);
  Bytes master(32, 0x5a);
  EncryptedPos enc(store, master);
  enc.set(to_bytes("alice"), to_bytes("topsecretvalue"));
  // The plaintext key must not be findable in the raw store.
  EXPECT_FALSE(store.get(to_bytes("alice")).has_value());
}

TEST(EncryptedPos, WrongMasterCannotRead) {
  Pos store(small_options());
  EncryptedPos good(store, Bytes(32, 0x01));
  EncryptedPos evil(store, Bytes(32, 0x02));
  good.set(to_bytes("k"), to_bytes("v"));
  EXPECT_FALSE(evil.get(to_bytes("k")).has_value());
  EXPECT_TRUE(good.get(to_bytes("k")).has_value());
}

TEST(EncryptedPos, UpdateAndErase) {
  Pos store(small_options());
  EncryptedPos enc(store, Bytes(32, 0x09));
  enc.set(to_bytes("k"), to_bytes("v1"));
  enc.set(to_bytes("k"), to_bytes("v2"));
  EXPECT_EQ(util::to_string(*enc.get(to_bytes("k"))), "v2");
  EXPECT_TRUE(enc.erase(to_bytes("k")));
  EXPECT_FALSE(enc.get(to_bytes("k")).has_value());
}

TEST(EncryptedPos, InstancesOnOneMasterNeverShareANonce) {
  // Two instances over one master key, as after a reboot that reloads the
  // sealed master: their first seals must not repeat a nonce.
  Pos store(small_options());
  const Bytes master(32, 0x3c);
  EncryptedPos first(store, master);
  EncryptedPos second(store, master);
  ASSERT_TRUE(first.set(to_bytes("k1"), to_bytes("same value")));
  ASSERT_TRUE(second.set(to_bytes("k2"), to_bytes("same value")));
  const crypto::DetKey det = crypto::derive_det_key(master);
  auto raw1 = store.get(crypto::det_encrypt(det, to_bytes("k1")));
  auto raw2 = store.get(crypto::det_encrypt(det, to_bytes("k2")));
  ASSERT_TRUE(raw1.has_value() && raw2.has_value());
  EXPECT_NE(Bytes(raw1->begin(), raw1->begin() + crypto::kAeadNonceSize),
            Bytes(raw2->begin(), raw2->begin() + crypto::kAeadNonceSize));
  // One master, one format: each instance reads the other's value.
  EXPECT_EQ(util::to_string(*first.get(to_bytes("k2"))), "same value");
  EXPECT_EQ(util::to_string(*second.get(to_bytes("k1"))), "same value");
}

TEST(EncryptedPos, SealedMasterKeyLifecycle) {
  sgxsim::ScopedCostModel scoped;
  sgxsim::cost_model().ecall_cycles = 10;
  sgxsim::cost_model().ocall_cycles = 10;
  auto& mgr = sgxsim::EnclaveManager::instance();
  sgxsim::Enclave& owner = mgr.create("pos-owner");
  sgxsim::Enclave& other = mgr.create("pos-other");

  Pos store(small_options());
  Bytes master(32);
  crypto::secure_random(master);
  {
    EncryptedPos enc(store, master);
    enc.set(to_bytes("data"), to_bytes("valuable"));
    EXPECT_TRUE(enc.store_sealed_master(owner, "__master", master));
  }
  // Same enclave identity recovers the key and the data.
  auto recovered = EncryptedPos::load_sealed_master(store, owner, "__master");
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(util::to_string(*recovered->get(to_bytes("data"))), "valuable");
  // A different enclave cannot.
  EXPECT_FALSE(
      EncryptedPos::load_sealed_master(store, other, "__master").has_value());
}

TEST(CleanerActorTest, FreesThroughActorInterface) {
  Pos store(small_options());
  store.set(to_bytes("k"), to_bytes("v1"));
  store.set(to_bytes("k"), to_bytes("v2"));
  CleanerActor cleaner("cleaner", store);
  cleaner.body();  // gather
  cleaner.body();  // free
  EXPECT_EQ(cleaner.freed_total(), 1u);
  EXPECT_EQ(store.stats().outdated, 0u);
}

}  // namespace
}  // namespace ea::pos

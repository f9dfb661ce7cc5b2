// POS crash-recovery torture harness (ctest label: fault).
//
// Strategy (DESIGN.md §10): a forked child runs a deterministic, journaled
// set/erase/clean/persist workload against a file-backed store. Phase 1
// runs the child to completion and collects, per failpoint site, how often
// it was evaluated. Phase 2 repeatedly re-runs the child with one site
// armed as `abort(k)` — k sampled uniformly from the site's evaluation
// count — so the process dies at a uniformly sampled kill-point inside the
// store's mutation machinery. The parent then remaps the store file,
// checks structural integrity (Pos::integrity_error) and verifies every
// key against the journal: each key must hold its last committed value, or
// the outcome of the single in-flight operation. Both plain and
// encrypted-POS (sealed master key) modes are tortured.
//
// The journal and the mmap'd store survive the abort because both live in
// the kernel (page cache / file), not in the dying process.
#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "crypto/rng.hpp"
#include "pos/encrypted.hpp"
#include "pos/pos.hpp"
#include "sgxsim/enclave.hpp"
#include "util/bytes.hpp"
#include "util/env.hpp"
#include "util/failpoint.hpp"

namespace ea::pos {
namespace {

namespace fp = util::failpoint;
using util::to_bytes;

constexpr std::size_t kKeys = 24;
constexpr int kOps = 320;

PosOptions torture_options(const std::string& path) {
  PosOptions o;
  o.path = path;
  o.bucket_count = 8;
  // Small enough that the single-threaded child drains its home shard and
  // crosses into the others, so the striped-refill / steal and magazine
  // machinery all run inside the tortured region.
  o.entry_count = 256;
  o.entry_payload = 128;
  o.free_shards = 4;
  o.magazines = 1;  // pinned: the census needs the magazine sites
  return o;
}

struct Paths {
  std::string store, journal, report;
};

Paths make_paths(const std::string& tag) {
  const std::string base =
      "/tmp/ea_crash_" + std::to_string(::getpid()) + "_" + tag;
  return {base + ".img", base + ".jnl", base + ".rep"};
}

void unlink_paths(const Paths& p) {
  ::unlink(p.store.c_str());
  ::unlink(p.journal.c_str());
  ::unlink(p.report.c_str());
}

// The enclave identity both parent and children seal/unseal under. Created
// once in the parent *before* any fork so the sealing key material (device
// root key + measurement) is inherited and a child-sealed master unseals in
// the parent.
sgxsim::Enclave& crash_enclave() {
  static sgxsim::Enclave& e =
      sgxsim::EnclaveManager::instance().create("crash-owner");
  return e;
}

const util::Bytes& master_key() {
  static const util::Bytes key(32, 0x5a);
  return key;
}

// --- journal ---------------------------------------------------------------
//
// Append-only text journal, one record per line, written with a single
// O_APPEND write(2) each: "I <op> <key> <value>" before the store call,
// "C ..." after it returned true, "F ..." after it returned false. The
// child only ever aborts *inside* a store call, so the journal always ends
// on complete lines and at most one intent lacks its outcome.
struct Journal {
  int fd = -1;
  explicit Journal(const std::string& path) {
    fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  }
  ~Journal() {
    if (fd >= 0) ::close(fd);
  }
  void record(char kind, const char* op, const std::string& key,
              const std::string& value) {
    char buf[192];
    const int n = std::snprintf(buf, sizeof(buf), "%c %s %s %s\n", kind, op,
                                key.c_str(), value.c_str());
    if (n > 0 && fd >= 0) {
      [[maybe_unused]] ssize_t w = ::write(fd, buf, static_cast<size_t>(n));
    }
  }
};

// --- deterministic child workload ------------------------------------------

// Identical in the counting pass and every kill run, so a site's k-th
// evaluation is the same program point in all of them.
void run_workload(const Paths& paths, bool encrypted) {
  Pos store(torture_options(paths.store));
  std::optional<EncryptedPos> enc;
  if (encrypted) {
    enc.emplace(store, master_key());
    enc->store_sealed_master(crash_enclave(), "__master", master_key());
  }
  Journal jnl(paths.journal);
  crypto::FastRng rng(0xC0FFEE);

  for (int op = 0; op < kOps; ++op) {
    const std::string key = "k" + std::to_string(rng.next_below(kKeys));
    const std::uint64_t dice = rng.next_below(8);
    if (dice < 5) {
      const std::string value = "v" + std::to_string(op);
      jnl.record('I', "set", key, value);
      const bool ok = encrypted ? enc->set(to_bytes(key), to_bytes(value))
                                : store.set(to_bytes(key), to_bytes(value));
      jnl.record(ok ? 'C' : 'F', "set", key, value);
    } else if (dice == 5) {
      jnl.record('I', "erase", key, "-");
      const bool ok =
          encrypted ? enc->erase(to_bytes(key)) : store.erase(to_bytes(key));
      jnl.record(ok ? 'C' : 'F', "erase", key, "-");
    } else if (dice == 6) {
      store.clean_step();
    } else {
      store.persist();
    }
    if (op % 16 == 0) store.clean_step();
  }
  store.persist();
}

// Forks; the child installs `site=spec` (if any), runs the workload, and
// optionally writes the evaluation report. Returns the wait status.
int run_child(const Paths& paths, bool encrypted, const char* site,
              const std::string& spec, bool report) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    fp::clear_all();
    fp::reset_counters();
    if (site != nullptr) fp::set(site, spec.c_str());
    try {
      run_workload(paths, encrypted);
    } catch (...) {
      ::_exit(42);  // distinguishable from both SIGABRT and clean exit
    }
    if (report) fp::write_report(paths.report.c_str());
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

// Reads the phase-1 report, keeping POS mutation sites only. Construction
// sites (pos.open / pos.mmap) are fault sites, not kill-points: a store
// that never finished constructing has no crash-consistency contract.
std::map<std::string, std::uint64_t> kill_sites(const std::string& path) {
  std::map<std::string, std::uint64_t> out;
  std::ifstream in(path);
  std::string name;
  std::uint64_t evals = 0, hits = 0;
  while (in >> name >> evals >> hits) {
    if (name.rfind("pos.", 0) == 0 && evals > 0 && name != "pos.open" &&
        name != "pos.mmap") {
      out[name] = evals;
    }
  }
  return out;
}

// --- journal replay + linearisability check --------------------------------

struct Model {
  std::map<std::string, std::string> committed;
  bool has_pending = false;
  bool pending_is_set = false;
  std::string pending_key, pending_value;
};

Model replay_journal(const std::string& path) {
  Model m;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    char kind = 0;
    std::string op, key, value;
    if (!(ls >> kind >> op >> key >> value)) continue;
    if (kind == 'I') {
      m.has_pending = true;
      m.pending_is_set = op == "set";
      m.pending_key = key;
      m.pending_value = value;
    } else {
      if (kind == 'C') {
        if (op == "set") {
          m.committed[key] = value;
        } else {
          m.committed.erase(key);
        }
      }
      m.has_pending = false;
    }
  }
  return m;
}

void verify_recovery(const Paths& p, bool encrypted, const std::string& ctx) {
  const Model m = replay_journal(p.journal);
  Pos store(torture_options(p.store));
  const auto integrity = store.integrity_error();
  ASSERT_FALSE(integrity.has_value()) << ctx << ": " << *integrity;

  std::optional<EncryptedPos> enc;
  if (encrypted) {
    auto loaded =
        EncryptedPos::load_sealed_master(store, crash_enclave(), "__master");
    if (!loaded.has_value()) {
      // The crash hit the sealed-master store itself; nothing can have been
      // committed yet.
      ASSERT_TRUE(m.committed.empty())
          << ctx << ": sealed master lost after commits";
      return;
    }
    enc.emplace(std::move(*loaded));
  }

  for (std::size_t i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    const auto raw =
        encrypted ? enc->get(to_bytes(key)) : store.get(to_bytes(key));
    std::optional<std::string> got;
    if (raw.has_value()) got = util::to_string(*raw);

    const auto it = m.committed.find(key);
    std::optional<std::string> committed;
    if (it != m.committed.end()) committed = it->second;

    bool ok = got == committed;
    if (!ok && m.has_pending && m.pending_key == key) {
      // The single in-flight op may have taken effect before the crash.
      ok = m.pending_is_set ? (got.has_value() && *got == m.pending_value)
                            : !got.has_value();
    }
    ASSERT_TRUE(ok) << ctx << ": key " << key << " holds "
                    << (got ? *got : "<absent>") << ", journal says "
                    << (committed ? *committed : "<absent>")
                    << (m.has_pending && m.pending_key == key
                            ? " (with in-flight " +
                                  std::string(m.pending_is_set ? "set "
                                                               : "erase ") +
                                  m.pending_value + ")"
                            : "");
  }
}

// --- the torture -----------------------------------------------------------

void torture(bool encrypted) {
  if (encrypted) crash_enclave();  // create pre-fork so the parent can unseal
  const int target =
      static_cast<int>(util::env_int("EA_CRASH_POINTS", 128));
  const std::string mode = encrypted ? "enc" : "plain";

  // Phase 1: count evaluations per site over the full workload.
  Paths base = make_paths(mode + "_count");
  unlink_paths(base);
  const int st = run_child(base, encrypted, nullptr, "", /*report=*/true);
  ASSERT_TRUE(WIFEXITED(st) && WEXITSTATUS(st) == 0)
      << "counting child status " << st;
  const auto histogram = kill_sites(base.report);
  unlink_paths(base);
  ASSERT_FALSE(histogram.empty());
  // The write-path scaling sites (DESIGN.md §11) and the epoch-reclamation
  // sites (§15) must be part of the census, or the torture silently stops
  // covering the sharded machinery / the gather-advance-flush pipeline.
  for (const char* site :
       {"pos.freeshard.steal", "pos.magazine.flush", "pos.bucket.cas",
        "pos.epoch.announce", "pos.epoch.advance", "pos.retire.flush"}) {
    EXPECT_EQ(histogram.count(site), 1u)
        << site << " missing from the " << mode << " torture census";
  }

  std::vector<std::pair<std::string, std::uint64_t>> sites(histogram.begin(),
                                                           histogram.end());
  crypto::FastRng rng(encrypted ? 0xE11C : 0x91A1);
  int executed = 0;
  for (int i = 0; i < target; ++i) {
    const auto& [site, total] = sites[static_cast<std::size_t>(i) %
                                      sites.size()];
    const std::uint64_t k = 1 + rng.next_below(total);
    const std::string ctx =
        mode + " kill-point " + site + "@" + std::to_string(k);
    Paths p = make_paths(mode + "_" + std::to_string(i));
    unlink_paths(p);
    const int status = run_child(p, encrypted, site.c_str(),
                                 "abort(" + std::to_string(k) + ")",
                                 /*report=*/false);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT)
        << ctx << ": child status " << status;
    ++executed;
    verify_recovery(p, encrypted, ctx);
    if (::testing::Test::HasFatalFailure()) return;
    unlink_paths(p);
  }
  EXPECT_EQ(executed, target);
}

TEST(PosCrashTorture, PlainModeSurvivesSampledKillPoints) { torture(false); }

TEST(PosCrashTorture, EncryptedModeSurvivesSampledKillPoints) {
  torture(true);
}

// The cleaner unlinks top-down, so a crash right after it unlinks an erase
// marker leaves the older version of the key still linked. Reopened, the
// store must read the key as erased: erase() tombstones that version too.
TEST(PosCrashTorture, CrashBetweenUnlinksDoesNotResurrectErasedKey) {
  const Paths paths = make_paths("erase_unlink");
  unlink_paths(paths);
  const pid_t pid = ::fork();
  if (pid == 0) {
    fp::clear_all();
    Pos store(torture_options(paths.store));
    const bool ok = store.set(to_bytes("k"), to_bytes("old")) &&
                    store.set(to_bytes("k"), to_bytes("new")) &&
                    store.erase(to_bytes("k"));
    if (!ok) ::_exit(42);
    fp::set("pos.clean.unlink", "abort(1)");
    store.clean_step();
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGABRT)
      << "child status " << status;
  {
    Pos reopened(torture_options(paths.store));
    EXPECT_EQ(reopened.integrity_error(), std::nullopt);
    EXPECT_FALSE(reopened.get(to_bytes("k")).has_value());
  }
  unlink_paths(paths);
}

// --- failpoint-driven unit coverage of the construction/persist sites ------

class PosFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override { fp::clear_all(); }
  void TearDown() override { fp::clear_all(); }
};

TEST_F(PosFailpointTest, MmapFailureThrows) {
  ASSERT_TRUE(fp::set("pos.mmap", "once"));
  EXPECT_THROW(Pos(PosOptions{}), std::runtime_error);
}

TEST_F(PosFailpointTest, OpenFailureThrows) {
  Paths p = make_paths("openfail");
  unlink_paths(p);
  ASSERT_TRUE(fp::set("pos.open", "once"));
  EXPECT_THROW(Pos(torture_options(p.store)), std::runtime_error);
  unlink_paths(p);
}

TEST_F(PosFailpointTest, MsyncFailureReportedByPersist) {
  Paths p = make_paths("msyncfail");
  unlink_paths(p);
  Pos store(torture_options(p.store));
  ASSERT_TRUE(store.set(to_bytes("k"), to_bytes("v")));
  ASSERT_TRUE(fp::set("pos.msync", "return"));
  EXPECT_FALSE(store.persist());
  fp::clear("pos.msync");
  EXPECT_TRUE(store.persist());
  unlink_paths(p);
}

TEST_F(PosFailpointTest, PersistIsTrivialForAnonymousStores) {
  Pos store{PosOptions{}};
  ASSERT_TRUE(fp::set("pos.msync", "return"));
  EXPECT_TRUE(store.persist());  // no backing file: nothing to msync
}

// --- write-path scaling sites (DESIGN.md §11) -------------------------------
//
// Each of the three sites added with the sharded free lists must fire
// deterministically, so the torture's census-driven sampling (above) can
// never silently lose them.

TEST_F(PosFailpointTest, BucketCasSiteCountsEveryPush) {
  PosOptions o;  // anonymous store
  o.free_shards = 2;
  Pos store(o);
  const std::uint64_t before = fp::evals("pos.bucket.cas");
  ASSERT_TRUE(store.set(to_bytes("k"), to_bytes("v")));
  EXPECT_GT(fp::evals("pos.bucket.cas"), before);
}

TEST_F(PosFailpointTest, StealSiteFiresWhenHomeShardRunsDry) {
  PosOptions o;
  o.free_shards = 8;
  o.entry_count = 64;
  o.magazines = 0;  // single-pop path: pop_or_steal
  Pos store(o);
  const std::uint64_t before = fp::evals("pos.freeshard.steal");
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(store.set(to_bytes("k" + std::to_string(i)), to_bytes("v")));
  }
  // 64 allocations from one thread against a home shard of 8 entries: the
  // other seven shards must have been raided.
  EXPECT_GT(fp::evals("pos.freeshard.steal"), before);
}

TEST_F(PosFailpointTest, StealSiteFiresOnStripedMagazineRefill) {
  PosOptions o;
  o.free_shards = 8;
  o.entry_count = 64;
  o.magazines = 1;
  Pos store(o);
  const std::uint64_t before = fp::evals("pos.freeshard.steal");
  // The very first refill stripes across the shards (one entry each, home
  // first), so even a single set touches non-home shards.
  ASSERT_TRUE(store.set(to_bytes("k"), to_bytes("v")));
  EXPECT_GT(fp::evals("pos.freeshard.steal"), before);
}

TEST_F(PosFailpointTest, MagazineFlushSiteFiresOnTeardown) {
  const std::uint64_t before = fp::evals("pos.magazine.flush");
  {
    PosOptions o;
    o.free_shards = 2;
    o.magazines = 1;
    Pos store(o);
    // One set refills a full magazine batch and consumes a single entry;
    // the leftovers must flow back through magazine_return at teardown.
    ASSERT_TRUE(store.set(to_bytes("k"), to_bytes("v")));
  }
  EXPECT_GT(fp::evals("pos.magazine.flush"), before);
}

// --- superblock versioning ---------------------------------------------------

// v3 (epoch reclamation) removed the v2 grace-counter region: the layouts
// are incompatible and so are the reclamation protocols. Opening an image
// whose version field says 2 must be refused before any other superblock
// field is believed — a regression here would silently misinterpret the
// old grace region as bucket heads.
TEST(PosVersioning, RejectsGraceCounterEraImages) {
  Paths p = make_paths("v2reject");
  unlink_paths(p);
  {
    Pos store(torture_options(p.store));
    ASSERT_TRUE(store.set(to_bytes("k"), to_bytes("v")));
    ASSERT_TRUE(store.persist());
  }
  // Patch the version field (a uint32 right after the 8-byte magic) back
  // to the grace-counter era.
  {
    const int fd = ::open(p.store.c_str(), O_WRONLY);
    ASSERT_GE(fd, 0);
    const std::uint32_t v2 = 2;
    ASSERT_EQ(::pwrite(fd, &v2, sizeof(v2), 8),
              static_cast<ssize_t>(sizeof(v2)));
    ::close(fd);
  }
  try {
    Pos reopened(torture_options(p.store));
    FAIL() << "v2 image accepted by a v3 store";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "POS: bad version");
  }
  unlink_paths(p);
}

// --- integrity checker sanity ----------------------------------------------

TEST(PosIntegrity, CleanStoreHasNoError) {
  Pos store{PosOptions{}};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(store.set(to_bytes("k" + std::to_string(i % 7)),
                          to_bytes("v" + std::to_string(i))));
  }
  store.erase(to_bytes("k3"));
  store.clean_step();
  EXPECT_FALSE(store.integrity_error().has_value());
}

TEST(PosIntegrity, DetectsScribbledBucketRegion) {
  Paths p = make_paths("scribble");
  unlink_paths(p);
  {
    Pos store(torture_options(p.store));
    ASSERT_TRUE(store.set(to_bytes("key"), to_bytes("value")));
    store.persist();
  }
  // Trash everything past the first 64 superblock bytes (magic, version and
  // geometry survive, so the constructor accepts the file) — the bucket
  // heads, free-shard heads and entries become 0xFF garbage that the
  // structural walk must reject.
  {
    std::fstream f(p.store,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(0, std::ios::end);
    const auto size = f.tellp();
    f.seekp(64);
    std::vector<char> junk(static_cast<std::size_t>(size) - 64,
                           static_cast<char>(0xFF));
    f.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  Pos reopened(torture_options(p.store));
  EXPECT_TRUE(reopened.integrity_error().has_value());
  unlink_paths(p);
}

}  // namespace
}  // namespace ea::pos

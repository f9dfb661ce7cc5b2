// Persistent Object Store walk-through (paper §4.1): a file-backed,
// linearisable key-value store accessed without system calls on the data
// path, with deterministic key encryption, AEAD-protected combined pairs,
// a cleaner reclaiming superseded versions under epoch-based reclamation
// (every operation runs in an epoch section; frees wait out the safety
// horizon), and the encryption master key sealed to an enclave identity so
// it survives restarts.
//
// Build & run:  ./build/examples/keyvalue_store
#include <unistd.h>

#include <cstdio>
#include <string>

#include "crypto/rng.hpp"
#include "pos/cleaner_actor.hpp"
#include "pos/encrypted.hpp"
#include "pos/pos.hpp"
#include "sgxsim/enclave.hpp"
#include "util/bytes.hpp"

using namespace ea;

namespace {

// Two boots of one store at `path`; true when the second boot reads the
// balances the first wrote and a foreign enclave cannot recover the key.
bool run(const std::string& path) {
  sgxsim::Enclave& owner =
      sgxsim::EnclaveManager::instance().create("kv-owner");

  // --- first "boot": create the store, seal the master key into it ---------
  {
    pos::PosOptions options;
    options.path = path;
    options.entry_count = 1024;
    options.entry_payload = 256;
    pos::Pos store(options);

    util::Bytes master(32);
    crypto::secure_random(master);
    pos::EncryptedPos enc(store, master);
    enc.store_sealed_master(owner, "__sealed_master", master);

    enc.set(util::to_bytes("alice"), util::to_bytes("balance=100"));
    enc.set(util::to_bytes("bob"), util::to_bytes("balance=250"));
    enc.set(util::to_bytes("alice"), util::to_bytes("balance=80"));  // update

    pos::PosStats stats = store.stats();
    std::printf("before cleaning: %llu live, %llu outdated entries\n",
                static_cast<unsigned long long>(stats.live),
                static_cast<unsigned long long>(stats.outdated));

    // The Cleaner runs as a housekeeping eactor; here we drive it by hand.
    pos::CleanerActor cleaner("cleaner", store);
    cleaner.body();  // gather outdated versions; first epoch advance
    cleaner.body();  // second advance passes the safety horizon: free
    stats = store.stats();
    std::printf("after cleaning:  %llu live, %llu outdated entries "
                "(%llu freed)\n",
                static_cast<unsigned long long>(stats.live),
                static_cast<unsigned long long>(stats.outdated),
                static_cast<unsigned long long>(cleaner.freed_total()));

    store.persist();  // single msync — the only syscall in the lifecycle
  }

  // --- second "boot": remap the file, recover the key by unsealing ---------
  {
    pos::PosOptions options;
    options.path = path;
    pos::Pos store(options);
    auto enc =
        pos::EncryptedPos::load_sealed_master(store, owner, "__sealed_master");
    if (!enc.has_value()) {
      std::fprintf(stderr, "unsealing failed\n");
      return false;
    }
    auto alice = enc->get(util::to_bytes("alice"));
    auto bob = enc->get(util::to_bytes("bob"));
    std::printf("after reboot: alice -> %s, bob -> %s\n",
                alice ? util::to_string(*alice).c_str() : "(missing)",
                bob ? util::to_string(*bob).c_str() : "(missing)");

    // A different enclave identity cannot recover the key.
    sgxsim::Enclave& stranger =
        sgxsim::EnclaveManager::instance().create("kv-stranger");
    bool denied =
        !pos::EncryptedPos::load_sealed_master(store, stranger, "__sealed_master")
             .has_value();
    std::printf("foreign enclave denied access to the master key: %s\n",
                denied ? "yes" : "NO (bug!)");
    return alice && util::to_string(*alice) == "balance=80" && bob &&
           util::to_string(*bob) == "balance=250" && denied;
  }
}

}  // namespace

int main() {
  // One store file per run, so concurrent runs do not share it.
  std::string path = "/tmp/eactors_kv_example.";
  path += std::to_string(::getpid());
  path += ".img";
  ::unlink(path.c_str());
  const bool ok = run(path);
  ::unlink(path.c_str());
  return ok ? 0 : 1;
}

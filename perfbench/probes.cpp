// Layer probes: the public calls a workload's operation is made of, timed
// one at a time on a quiet process (after the workload's deployment is
// gone). Each probe reports the median over several batches.
//
//   crypto.aead_seal_us / aead_open_us — a 4000-byte channel frame, the
//       size of one smc_ring hop (3 seals and 3 opens per request);
//   sgxsim.trusted_rng_us — the 4000-byte masking refill smc_ring pays per
//       request (a cost-model constant: predicted flat);
//   crypto.x25519_us — one scalar multiplication;
//   sgxsim.attested_exchange_ms — both ends and both complete() calls, as
//       MigrationCoordinator::migrate() runs them per move;
//   sgxsim.seal_64k_us — sealing the migrate workload's 64 KiB state.
#include <algorithm>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/rng.hpp"
#include "crypto/x25519.hpp"
#include "sgxsim/attested_exchange.hpp"
#include "sgxsim/enclave.hpp"
#include "sgxsim/remote_attestation.hpp"
#include "sgxsim/sealing.hpp"
#include "sgxsim/trusted_rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kFrameText = 4000;

// Median over `batches` of the mean time of `per_batch` calls, in ns.
template <typename Fn>
double probe_ns(int batches, int per_batch, Fn&& fn) {
  std::vector<double> means;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < per_batch; ++i) fn();
    means.push_back(static_cast<double>(now_ns() - t0) / per_batch);
  }
  return median(means);
}

}  // namespace

void run_layer_probes(std::map<std::string, double>& layer) {
  ea::crypto::FastRng rng(7);
  ea::crypto::AeadKey key{};
  rng.fill(key);
  const std::uint8_t aad[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::uint8_t> frame(ea::crypto::kAeadOverhead + kFrameText);
  rng.fill(frame);
  std::uint64_t counter = 0;
  layer["crypto.aead_seal_us"] = probe_ns(15, 32, [&] {
    ea::crypto::seal_framed_into(key, ++counter, aad, frame);
  }) * 1e-3;

  const std::vector<std::uint8_t> sealed = frame;
  std::vector<std::uint8_t> work(sealed.size());
  std::uint64_t opened = 0;
  layer["crypto.aead_open_us"] = probe_ns(15, 32, [&] {
    std::copy(sealed.begin(), sealed.end(), work.begin());
    std::size_t len = 0;
    if (ea::crypto::open_framed_in_place(key, aad, work, len)) ++opened;
  }) * 1e-3;
  if (opened == 0) layer["crypto.aead_open_us"] = 0;  // probe itself broken

  std::vector<std::uint8_t> mask(kFrameText);
  layer["sgxsim.trusted_rng_us"] =
      probe_ns(15, 16, [&] { ea::sgxsim::trusted_read_rand(mask); }) * 1e-3;

  ea::crypto::X25519Key scalar{};
  rng.fill(scalar);
  layer["crypto.x25519_us"] = probe_ns(9, 4, [&] {
    scalar = ea::crypto::x25519_base(scalar);
  }) * 1e-3;

  auto& enclaves = ea::sgxsim::EnclaveManager::instance();
  ea::sgxsim::Enclave& source = enclaves.create("probe.source");
  ea::sgxsim::Enclave& target = enclaves.create("probe.target");
  const ea::sgxsim::AttestationVerifier verifier;
  std::uint64_t nonce = 1;
  std::uint64_t agreed = 0;
  layer["sgxsim.attested_exchange_ms"] = probe_ns(9, 2, [&] {
    const std::uint64_t nonce_src = ++nonce;
    const std::uint64_t nonce_tgt = ++nonce;
    ea::sgxsim::AttestedExchange ex_src(source, nonce_tgt);
    ea::sgxsim::AttestedExchange ex_tgt(target, nonce_src);
    auto k1 = ex_src.complete(ex_tgt.quote(), nonce_src, verifier,
                              &target.measurement());
    auto k2 = ex_tgt.complete(ex_src.quote(), nonce_tgt, verifier,
                              &source.measurement());
    if (k1 && k2 && *k1 == *k2) ++agreed;
  }) * 1e-6;
  if (agreed == 0) layer["sgxsim.attested_exchange_ms"] = 0;

  std::vector<std::uint8_t> state(64 * 1024);
  rng.fill(state);
  layer["sgxsim.seal_64k_us"] = probe_ns(9, 4, [&] {
    ea::util::Bytes blob = ea::sgxsim::seal(source, state);
    state[0] ^= blob[0];
  }) * 1e-3;
  enclaves.reset_for_testing();
}

}  // namespace perfbench

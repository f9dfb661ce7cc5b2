#include "smc/sdk_ring.hpp"

#include <stdexcept>

#include "sgxsim/attestation.hpp"
#include "sgxsim/transition.hpp"
#include "sgxsim/trusted_rng.hpp"

namespace ea::smc {

SdkSecureSum::SdkSecureSum(SmcConfig config, std::vector<Vec> secrets)
    : config_(config) {
  if (!secrets.empty() &&
      secrets.size() != static_cast<std::size_t>(config_.parties)) {
    throw std::invalid_argument("one secret per party");
  }
  auto& mgr = sgxsim::EnclaveManager::instance();
  parties_.resize(static_cast<std::size_t>(config_.parties));
  for (int i = 0; i < config_.parties; ++i) {
    Party& p = parties_[static_cast<std::size_t>(i)];
    p.enclave = &mgr.create("smc.sdk.e" + std::to_string(i));
    p.enclave->add_committed(config_.dim * sizeof(Element) * 2);
    p.secret = secrets.empty()
                   ? initial_secret(i, config_.dim)
                   : std::move(secrets[static_cast<std::size_t>(i)]);
    if (i == 0) p.rnd.resize(config_.dim);
  }
  // Pairwise session keys between ring neighbours via local attestation —
  // the preparation phase of the protocol.
  for (int i = 0; i < config_.parties; ++i) {
    Party& p = parties_[static_cast<std::size_t>(i)];
    Party& n = parties_[static_cast<std::size_t>((i + 1) % config_.parties)];
    auto key = sgxsim::establish_session_key(*p.enclave, *n.enclave);
    if (!key.has_value()) throw std::runtime_error("attestation failed");
    p.next_key = *key;
    n.prev_key = *key;
  }
}

Vec SdkSecureSum::run_once() {
  const int k = config_.parties;
  util::Bytes wire;  // ciphertext handed between enclaves by the one thread

  // Party 0: generate Rnd, mask, encrypt for party 1.
  {
    Party& p = parties_[0];
    sgxsim::ecall(*p.enclave, [&] {
      refill_random_trusted(p.rnd);
      Vec m = p.secret;
      add_in_place(m, p.rnd);
      wire = crypto::seal_with_counter(p.next_key, p.send_counter++, {},
                                       serialize(m));
    });
  }

  // Parties 1..K-1: decrypt, add secret, re-encrypt for the next hop.
  for (int i = 1; i < k; ++i) {
    Party& p = parties_[static_cast<std::size_t>(i)];
    sgxsim::ecall(*p.enclave, [&] {
      auto plain = crypto::open_framed(p.prev_key, {}, wire);
      if (!plain.has_value()) throw std::runtime_error("SMC hop auth failed");
      Vec m = deserialize(*plain);
      add_in_place(m, p.secret);
      wire = crypto::seal_with_counter(p.next_key, p.send_counter++, {},
                                       serialize(m));
      if (config_.dynamic) update_secret(p.secret);
    });
  }

  // Party 0: decrypt the full ring result and unmask.
  Vec sum;
  {
    Party& p = parties_[0];
    sgxsim::ecall(*p.enclave, [&] {
      auto plain = crypto::open_framed(p.prev_key, {}, wire);
      if (!plain.has_value()) throw std::runtime_error("SMC final auth failed");
      sum = deserialize(*plain);
      sub_in_place(sum, p.rnd);
      if (config_.dynamic) update_secret(p.secret);
    });
  }
  return sum;
}

Vec SdkSecureSum::expected_sum() const {
  Vec sum(config_.dim, 0);
  for (const Party& p : parties_) add_in_place(sum, p.secret);
  return sum;
}

}  // namespace ea::smc

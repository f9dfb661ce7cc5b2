#include "smc/sdk_ring.hpp"

#include <stdexcept>

#include "sgxsim/transition.hpp"

namespace ea::smc {

SdkSecureSum::SdkSecureSum(SmcConfig config, std::vector<Vec> secrets)
    : config_(config), mask_(config.dim) {
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
  }
  // One sealed link per pair of ring neighbours, attested and keyed — the
  // preparation phase of the protocol.
  for (int i = 0; i < config_.parties; ++i) {
    std::optional<core::HopSeal> link = core::HopSeal::link(
        *parties_[static_cast<std::size_t>(i)].enclave,
        *parties_[static_cast<std::size_t>((i + 1) % config_.parties)]
             .enclave);
    if (!link.has_value()) throw std::runtime_error("attestation failed");
    links_.push_back(*link);
  }
  wire_.resize(core::HopSeal::kOverhead + config_.dim * sizeof(Element));
}

void SdkSecureSum::open_hop(int from) {
  std::size_t plain_len = 0;
  if (!links_[static_cast<std::size_t>(from)].open(/*side=*/1, wire_,
                                                   plain_len) ||
      plain_len != config_.dim * sizeof(Element)) {
    throw std::runtime_error("SMC hop auth failed");
  }
}

Vec SdkSecureSum::run_once() {
  const int k = config_.parties;
  std::uint8_t* token = wire_.data() + core::HopSeal::kHeader;

  // Party 0: draw all of Rnd (the one thread has no idle quanta to draw
  // it in), mask, seal for party 1.
  {
    Party& p = parties_[0];
    sgxsim::ecall(*p.enclave, [&] {
      serialize_into(token, p.secret);
      add_to_bytes(token, mask_.take());
      links_[0].seal(/*side=*/0, wire_);
    });
  }

  // Parties 1..K-1: open, add the secret, seal for the next hop.
  for (int i = 1; i < k; ++i) {
    Party& p = parties_[static_cast<std::size_t>(i)];
    sgxsim::ecall(*p.enclave, [&] {
      open_hop(i - 1);
      add_to_bytes(token, p.secret);
      links_[static_cast<std::size_t>(i)].seal(/*side=*/0, wire_);
      if (config_.dynamic) update_secret(p.secret);
    });
  }

  // Party 0: open the full ring result and unmask.
  Vec sum;
  {
    Party& p = parties_[0];
    sgxsim::ecall(*p.enclave, [&] {
      open_hop(k - 1);
      sum = deserialize(std::span<const std::uint8_t>(
          token, config_.dim * sizeof(Element)));
      sub_in_place(sum, mask_.current());
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

#include "sgxsim/attested_exchange.hpp"

#include <algorithm>
#include <cstring>

#include "crypto/hkdf.hpp"
#include "util/bytes.hpp"

namespace ea::sgxsim {

AttestedExchange::AttestedExchange(const Enclave& self,
                                   std::uint64_t peer_nonce)
    : self_(self), private_key_(crypto::x25519_keygen()) {
  crypto::X25519Key public_key = crypto::x25519_base(private_key_);
  quote_ = create_quote(self, public_key, peer_nonce);
}

AttestedExchange::~AttestedExchange() {
  util::secure_zero(private_key_.data(), private_key_.size());
}

std::optional<crypto::AeadKey> AttestedExchange::complete(
    const Quote& peer_quote, std::uint64_t my_nonce,
    const AttestationVerifier& verifier,
    const crypto::Sha256Digest* expected_measurement) const {
  if (expected_measurement != nullptr) {
    if (!verifier.verify_measurement(peer_quote, my_nonce,
                                     *expected_measurement)) {
      return std::nullopt;
    }
  } else if (!verifier.verify(peer_quote, my_nonce)) {
    return std::nullopt;
  }

  crypto::X25519Key peer_public;
  std::memcpy(peer_public.data(), peer_quote.report_data.data(),
              peer_public.size());
  crypto::X25519Key shared = crypto::x25519(private_key_, peer_public);

  // All-zero shared secret means the peer supplied a low-order point.
  bool all_zero = std::all_of(shared.begin(), shared.end(),
                              [](std::uint8_t b) { return b == 0; });
  if (all_zero) return std::nullopt;

  // Bind the key to both identities, order-normalised so both sides agree.
  util::Bytes info;
  const auto& ma = self_.measurement();
  const auto& mb = peer_quote.measurement;
  bool a_first =
      std::lexicographical_compare(ma.begin(), ma.end(), mb.begin(), mb.end());
  const auto& first = a_first ? ma : mb;
  const auto& second = a_first ? mb : ma;
  info.insert(info.end(), first.begin(), first.end());
  info.insert(info.end(), second.begin(), second.end());

  util::Bytes okm = crypto::hkdf({}, shared, info, crypto::kAeadKeySize);
  util::secure_zero(shared.data(), shared.size());
  crypto::AeadKey key;
  std::memcpy(key.data(), okm.data(), key.size());
  util::secure_zero(okm);
  return key;
}

}  // namespace ea::sgxsim

#include "core/hop_seal.hpp"

#include <cstring>

#include "crypto/hkdf.hpp"
#include "crypto/rng.hpp"
#include "sgxsim/attestation.hpp"

namespace ea::core {

std::optional<HopSeal> HopSeal::link(const sgxsim::Enclave& a,
                                     const sgxsim::Enclave& b) {
  std::optional<crypto::AeadKey> pair = sgxsim::establish_session_key(a, b);
  if (!pair.has_value()) return std::nullopt;
  std::uint8_t salt[32];
  crypto::secure_random(salt);
  util::Bytes okm = crypto::hkdf(salt, *pair, util::to_bytes("ea-hop"),
                                 crypto::kAeadKeySize);
  HopSeal hop;
  std::memcpy(hop.key_.data(), okm.data(), hop.key_.size());
  util::secure_zero(okm);
  util::secure_zero(pair->data(), pair->size());
  return hop;
}

void HopSeal::seal(int side, std::span<std::uint8_t> frame) {
  const std::uint8_t aad[1] = {static_cast<std::uint8_t>(side)};
  crypto::seal_framed_into(key_, send_next_[side]++, aad, frame);
}

bool HopSeal::open(int side, std::span<std::uint8_t> frame,
                   std::size_t& plain_len) {
  const int sender = 1 - side;
  const std::uint8_t aad[1] = {static_cast<std::uint8_t>(sender)};
  if (!crypto::open_framed_in_place(key_, aad, frame, plain_len)) {
    return false;
  }
  // The counter is authenticated (the nonce keys Poly1305): it must come
  // from the sender's half and be new.
  const std::uint64_t ctr = util::load_le64(frame.data() + kHeader - 8);
  if (ctr >> 63 != static_cast<std::uint64_t>(sender) ||
      ctr < recv_next_[sender]) {
    return false;
  }
  recv_next_[sender] = ctr + 1;
  return true;
}

}  // namespace ea::core

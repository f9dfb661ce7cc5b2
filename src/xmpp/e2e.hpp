// Service-level message encryption for the XMPP use case (paper §5.1).
//
// O2O chats are end-to-end encrypted: the sender seals the body for the
// recipient; the server routes ciphertext blindly. For group chats "the
// server decrypts the messages of each user and re-encrypts for all members
// of the group" — that re-encryption is the per-message work the enclaved
// XMPP eactor performs.
//
// Key management is deliberately simple (the paper's focus is the runtime,
// not key distribution): per-user keys are derived from a deployment master
// secret, with separate derivation contexts so the client→recipient and
// server→member directions never share a nonce space.
#pragma once

#include <cstring>
#include <optional>
#include <string>

#include "crypto/aead.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/rng.hpp"
#include "util/bytes.hpp"

namespace ea::xmpp {

// Derivation contexts.
inline constexpr std::string_view kCtxO2O = "o2o";        // client -> recipient
inline constexpr std::string_view kCtxGroup = "grp";      // server -> member
inline constexpr std::string_view kCtxGroupUp = "grpup";  // sender -> server

// Nonces are caller-supplied 64-bit values; use fresh_nonce() (multiple
// parties, and every server start, share the per-recipient key, so
// counters would collide).
inline std::uint64_t fresh_nonce() {
  std::uint8_t bytes[8];
  crypto::secure_random(bytes);
  return util::load_le64(bytes);
}

inline crypto::AeadKey user_key(std::string_view jid, std::string_view ctx) {
  static constexpr std::uint8_t kMaster[] = "ea-xmpp-deployment-master";
  std::string info(ctx);
  info.push_back('\0');
  info.append(jid);
  util::Bytes okm = crypto::hkdf(
      std::span<const std::uint8_t>(kMaster, sizeof(kMaster) - 1), {},
      util::to_bytes(info), crypto::kAeadKeySize);
  crypto::AeadKey key;
  std::memcpy(key.data(), okm.data(), key.size());
  return key;
}

// Seals `plaintext` and hex-encodes it so it survives XML transport.
inline std::string seal_body(const crypto::AeadKey& key, std::uint64_t counter,
                             std::string_view plaintext) {
  util::Bytes framed = crypto::seal_with_counter(
      key, counter, {},
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(plaintext.data()),
          plaintext.size()));
  return util::to_hex(framed);
}

inline std::optional<std::string> open_body(const crypto::AeadKey& key,
                                            std::string_view hex) {
  util::Bytes framed;
  try {
    framed = util::from_hex(hex);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  std::optional<util::Bytes> plain = crypto::open_framed(key, {}, framed);
  if (!plain.has_value()) return std::nullopt;
  return util::to_string(*plain);
}

}  // namespace ea::xmpp

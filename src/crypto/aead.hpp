// ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//
// This is the cipher used by encrypted channels between enclaves and by the
// secure multi-party computation ring. Sealing in the SGX simulator reuses
// it with sealing keys.
#pragma once

#include <optional>
#include <span>

#include "crypto/chacha20.hpp"
#include "crypto/poly1305.hpp"
#include "util/bytes.hpp"

namespace ea::crypto {

inline constexpr std::size_t kAeadKeySize = kChaChaKeySize;
inline constexpr std::size_t kAeadNonceSize = kChaChaNonceSize;
inline constexpr std::size_t kAeadTagSize = kPolyTagSize;
// Bytes an encrypted message grows by: nonce prefix + tag suffix
// (see seal_with_counter framing).
inline constexpr std::size_t kAeadOverhead = kAeadNonceSize + kAeadTagSize;

using AeadKey = ChaChaKey;
using AeadNonce = ChaChaNonce;

// Encrypts `plaintext`; returns ciphertext||tag. Low-level primitive — most
// callers want seal_with_counter below, which also frames the nonce.
util::Bytes aead_encrypt(const AeadKey& key, const AeadNonce& nonce,
                         std::span<const std::uint8_t> aad,
                         std::span<const std::uint8_t> plaintext);

// Decrypts ciphertext||tag; returns nullopt on authentication failure.
std::optional<util::Bytes> aead_decrypt(const AeadKey& key,
                                        const AeadNonce& nonce,
                                        std::span<const std::uint8_t> aad,
                                        std::span<const std::uint8_t> sealed);

// Message framing: out = nonce(12) || ciphertext || tag(16), with the
// nonce = 4 zero bytes || le64(counter). Nothing here stops a (key,
// counter) pair from repeating; each caller must rule it out for its keys.
// Every hop between enclaves seals through core::HopSeal, which derives a
// fresh key per link and gives each direction its own half of the counter
// space.
util::Bytes seal_with_counter(const AeadKey& key, std::uint64_t counter,
                              std::span<const std::uint8_t> aad,
                              std::span<const std::uint8_t> plaintext);

std::optional<util::Bytes> open_framed(const AeadKey& key,
                                       std::span<const std::uint8_t> aad,
                                       std::span<const std::uint8_t> framed);

// Zero-allocation variants used by core::HopSeal and the migration transfer
// frame (§3.3 forbids dynamic allocation on the message path: nodes are
// the only buffers).
//
// seal_framed_into seals a frame the caller has already laid out in place:
// `frame` must be kAeadNonceSize + plaintext + kAeadTagSize bytes with the
// plaintext starting at offset kAeadNonceSize. The nonce prefix and tag
// suffix are written and the plaintext encrypted in place.
void seal_framed_into(const AeadKey& key, std::uint64_t counter,
                      std::span<const std::uint8_t> aad,
                      std::span<std::uint8_t> frame);

// Authenticates and decrypts `framed` (nonce || ciphertext || tag) in
// place. On success the plaintext sits at offset kAeadNonceSize inside
// `framed`, its length stored in `plaintext_len`. Returns false (leaving
// the ciphertext untouched) on authentication failure.
bool open_framed_in_place(const AeadKey& key,
                          std::span<const std::uint8_t> aad,
                          std::span<std::uint8_t> framed,
                          std::size_t& plaintext_len);

}  // namespace ea::crypto

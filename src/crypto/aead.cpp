#include "crypto/aead.hpp"

#include <cstring>

#include "util/failpoint.hpp"

namespace ea::crypto {
namespace {

PolyTag compute_tag(const AeadKey& key, const AeadNonce& nonce,
                    std::span<const std::uint8_t> aad,
                    std::span<const std::uint8_t> ciphertext) {
  std::uint8_t block0[64];
  chacha20_block(key, 0, nonce, block0);
  PolyKey poly_key;
  std::memcpy(poly_key.data(), block0, poly_key.size());

  Poly1305 mac(poly_key);
  static constexpr std::uint8_t kZeros[16] = {};
  mac.update(aad);
  mac.update(std::span(kZeros, (16 - aad.size() % 16) % 16));
  mac.update(ciphertext);
  mac.update(std::span(kZeros, (16 - ciphertext.size() % 16) % 16));
  std::uint8_t lengths[16];
  util::store_le64(lengths, aad.size());
  util::store_le64(lengths + 8, ciphertext.size());
  mac.update(lengths);
  return mac.finish();
}

}  // namespace

util::Bytes aead_encrypt(const AeadKey& key, const AeadNonce& nonce,
                         std::span<const std::uint8_t> aad,
                         std::span<const std::uint8_t> plaintext) {
  util::Bytes out(plaintext.begin(), plaintext.end());
  chacha20_xor(key, 1, nonce, out);
  PolyTag tag = compute_tag(key, nonce, aad, out);
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::optional<util::Bytes> aead_decrypt(const AeadKey& key,
                                        const AeadNonce& nonce,
                                        std::span<const std::uint8_t> aad,
                                        std::span<const std::uint8_t> sealed) {
  if (sealed.size() < kAeadTagSize) return std::nullopt;
  // Injected tag mismatch: behaves exactly like a corrupted frame without
  // having to craft one, so fault tests can hit every open() call site.
  if (EA_FAIL_TRIGGERED("crypto.aead.open")) return std::nullopt;
  auto ciphertext = sealed.first(sealed.size() - kAeadTagSize);
  auto tag = sealed.last(kAeadTagSize);
  PolyTag expected = compute_tag(key, nonce, aad, ciphertext);
  if (!util::ct_equal(tag, expected)) return std::nullopt;
  util::Bytes out(ciphertext.begin(), ciphertext.end());
  chacha20_xor(key, 1, nonce, out);
  return out;
}

util::Bytes seal_with_counter(const AeadKey& key, std::uint64_t counter,
                              std::span<const std::uint8_t> aad,
                              std::span<const std::uint8_t> plaintext) {
  util::Bytes out(kAeadOverhead + plaintext.size());
  if (!plaintext.empty()) {
    std::memcpy(out.data() + kAeadNonceSize, plaintext.data(),
                plaintext.size());
  }
  // `out` is ciphertext once sealed and goes to the caller; the plaintext
  // span is the caller's to wipe.
  // ea-lint: allow-next-line(seal-plaintext-zeroize)
  seal_framed_into(key, counter, aad, out);
  return out;
}

std::optional<util::Bytes> open_framed(const AeadKey& key,
                                       std::span<const std::uint8_t> aad,
                                       std::span<const std::uint8_t> framed) {
  if (framed.size() < kAeadOverhead) return std::nullopt;
  AeadNonce nonce;
  std::memcpy(nonce.data(), framed.data(), nonce.size());
  return aead_decrypt(key, nonce, aad, framed.subspan(nonce.size()));
}

void seal_framed_into(const AeadKey& key, std::uint64_t counter,
                      std::span<const std::uint8_t> aad,
                      std::span<std::uint8_t> frame) {
  AeadNonce nonce{};
  util::store_le64(nonce.data() + 4, counter);
  std::memcpy(frame.data(), nonce.data(), nonce.size());
  auto body = frame.subspan(nonce.size(), frame.size() - kAeadOverhead);
  chacha20_xor(key, 1, nonce, body);
  PolyTag tag = compute_tag(key, nonce, aad, body);
  std::memcpy(frame.data() + frame.size() - tag.size(), tag.data(),
              tag.size());
}

bool open_framed_in_place(const AeadKey& key,
                          std::span<const std::uint8_t> aad,
                          std::span<std::uint8_t> framed,
                          std::size_t& plaintext_len) {
  if (framed.size() < kAeadOverhead) return false;
  if (EA_FAIL_TRIGGERED("crypto.aead.open")) return false;
  AeadNonce nonce;
  std::memcpy(nonce.data(), framed.data(), nonce.size());
  auto ciphertext =
      framed.subspan(nonce.size(), framed.size() - kAeadOverhead);
  auto tag = framed.last(kAeadTagSize);
  PolyTag expected = compute_tag(key, nonce, aad, ciphertext);
  if (!util::ct_equal(tag, expected)) return false;
  chacha20_xor(key, 1, nonce, ciphertext);
  plaintext_len = ciphertext.size();
  return true;
}

}  // namespace ea::crypto

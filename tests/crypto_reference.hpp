// Test-only reference implementations: the block-at-a-time ChaCha20 XOR
// loop and the 26-bit-limb Poly1305 the crypto module shipped before its
// SSE2 and 64-bit-limb rewrites, kept verbatim so crypto_test can check the
// fast code against them byte for byte.
#pragma once

#include <algorithm>
#include <cstring>
#include <span>

#include "crypto/chacha20.hpp"
#include "crypto/poly1305.hpp"
#include "util/bytes.hpp"

namespace ea::crypto::reference {

inline void ref_chacha20_xor(const ChaChaKey& key, std::uint32_t counter,
                             const ChaChaNonce& nonce,
                             std::span<std::uint8_t> data) {
  std::uint8_t block[64];
  std::size_t off = 0;
  while (off < data.size()) {
    chacha20_block(key, counter++, nonce, block);
    std::size_t take = std::min<std::size_t>(64, data.size() - off);
    for (std::size_t i = 0; i < take; ++i) data[off + i] ^= block[i];
    off += take;
  }
}

class RefPoly1305 {
 public:
  explicit RefPoly1305(const PolyKey& key);

  void update(std::span<const std::uint8_t> data);
  PolyTag finish();

 private:
  void process_block(const std::uint8_t block[16], bool final_partial);

  // 26-bit limb representation as in the reference "floodyberry" design.
  std::uint32_t r_[5]{};
  std::uint32_t h_[5]{};
  std::uint8_t pad_[16]{};
  std::uint8_t buffer_[16]{};
  std::size_t buffer_len_ = 0;
};

inline RefPoly1305::RefPoly1305(const PolyKey& key) {
  // r is clamped per RFC 8439 §2.5.
  std::uint32_t t0 = util::load_le32(key.data() + 0);
  std::uint32_t t1 = util::load_le32(key.data() + 4);
  std::uint32_t t2 = util::load_le32(key.data() + 8);
  std::uint32_t t3 = util::load_le32(key.data() + 12);
  r_[0] = t0 & 0x3ffffff;
  r_[1] = ((t0 >> 26) | (t1 << 6)) & 0x3ffff03;
  r_[2] = ((t1 >> 20) | (t2 << 12)) & 0x3ffc0ff;
  r_[3] = ((t2 >> 14) | (t3 << 18)) & 0x3f03fff;
  r_[4] = (t3 >> 8) & 0x00fffff;
  std::memcpy(pad_, key.data() + 16, 16);
}

inline void RefPoly1305::process_block(const std::uint8_t block[16],
                                       bool final_partial) {
  const std::uint32_t hibit = final_partial ? 0 : (1u << 24);
  std::uint32_t t0 = util::load_le32(block + 0);
  std::uint32_t t1 = util::load_le32(block + 4);
  std::uint32_t t2 = util::load_le32(block + 8);
  std::uint32_t t3 = util::load_le32(block + 12);

  std::uint64_t h0 = h_[0] + (t0 & 0x3ffffff);
  std::uint64_t h1 = h_[1] + (((t0 >> 26) | (t1 << 6)) & 0x3ffffff);
  std::uint64_t h2 = h_[2] + (((t1 >> 20) | (t2 << 12)) & 0x3ffffff);
  std::uint64_t h3 = h_[3] + (((t2 >> 14) | (t3 << 18)) & 0x3ffffff);
  std::uint64_t h4 = h_[4] + ((t3 >> 8) | hibit);

  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2], r3 = r_[3], r4 = r_[4];
  const std::uint64_t s1 = r1 * 5, s2 = r2 * 5, s3 = r3 * 5, s4 = r4 * 5;

  std::uint64_t d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
  std::uint64_t d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
  std::uint64_t d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
  std::uint64_t d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
  std::uint64_t d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

  std::uint64_t c;
  c = d0 >> 26;
  h0 = d0 & 0x3ffffff;
  d1 += c;
  c = d1 >> 26;
  h1 = d1 & 0x3ffffff;
  d2 += c;
  c = d2 >> 26;
  h2 = d2 & 0x3ffffff;
  d3 += c;
  c = d3 >> 26;
  h3 = d3 & 0x3ffffff;
  d4 += c;
  c = d4 >> 26;
  h4 = d4 & 0x3ffffff;
  h0 += c * 5;
  c = h0 >> 26;
  h0 &= 0x3ffffff;
  h1 += c;

  h_[0] = static_cast<std::uint32_t>(h0);
  h_[1] = static_cast<std::uint32_t>(h1);
  h_[2] = static_cast<std::uint32_t>(h2);
  h_[3] = static_cast<std::uint32_t>(h3);
  h_[4] = static_cast<std::uint32_t>(h4);
}

inline void RefPoly1305::update(std::span<const std::uint8_t> data) {
  std::size_t pos = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(data.size(), std::size_t{16} - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos += take;
    if (buffer_len_ == 16) {
      process_block(buffer_, /*final_partial=*/false);
      buffer_len_ = 0;
    }
  }
  while (data.size() - pos >= 16) {
    process_block(data.data() + pos, /*final_partial=*/false);
    pos += 16;
  }
  if (pos < data.size()) {
    std::memcpy(buffer_, data.data() + pos, data.size() - pos);
    buffer_len_ = data.size() - pos;
  }
}

inline PolyTag RefPoly1305::finish() {
  if (buffer_len_ > 0) {
    // Pad the final partial block with 0x01 then zeros; the hibit is omitted.
    buffer_[buffer_len_] = 1;
    std::memset(buffer_ + buffer_len_ + 1, 0, 16 - buffer_len_ - 1);
    process_block(buffer_, /*final_partial=*/true);
    buffer_len_ = 0;
  }

  std::uint32_t h0 = h_[0], h1 = h_[1], h2 = h_[2], h3 = h_[3], h4 = h_[4];
  std::uint32_t c;
  c = h1 >> 26;
  h1 &= 0x3ffffff;
  h2 += c;
  c = h2 >> 26;
  h2 &= 0x3ffffff;
  h3 += c;
  c = h3 >> 26;
  h3 &= 0x3ffffff;
  h4 += c;
  c = h4 >> 26;
  h4 &= 0x3ffffff;
  h0 += c * 5;
  c = h0 >> 26;
  h0 &= 0x3ffffff;
  h1 += c;

  // Compute h + -p and select.
  std::uint32_t g0 = h0 + 5;
  c = g0 >> 26;
  g0 &= 0x3ffffff;
  std::uint32_t g1 = h1 + c;
  c = g1 >> 26;
  g1 &= 0x3ffffff;
  std::uint32_t g2 = h2 + c;
  c = g2 >> 26;
  g2 &= 0x3ffffff;
  std::uint32_t g3 = h3 + c;
  c = g3 >> 26;
  g3 &= 0x3ffffff;
  std::uint32_t g4 = h4 + c - (1u << 26);

  std::uint32_t mask = (g4 >> 31) - 1;  // all-ones if h >= p
  g0 &= mask;
  g1 &= mask;
  g2 &= mask;
  g3 &= mask;
  g4 &= mask;
  mask = ~mask;
  h0 = (h0 & mask) | g0;
  h1 = (h1 & mask) | g1;
  h2 = (h2 & mask) | g2;
  h3 = (h3 & mask) | g3;
  h4 = (h4 & mask) | g4;

  // Serialise to 128 bits and add the pad.
  std::uint32_t f0 = h0 | (h1 << 26);
  std::uint32_t f1 = (h1 >> 6) | (h2 << 20);
  std::uint32_t f2 = (h2 >> 12) | (h3 << 14);
  std::uint32_t f3 = (h3 >> 18) | (h4 << 8);

  std::uint64_t acc;
  PolyTag tag{};
  acc = std::uint64_t{f0} + util::load_le32(pad_ + 0);
  util::store_le32(tag.data() + 0, static_cast<std::uint32_t>(acc));
  acc = std::uint64_t{f1} + util::load_le32(pad_ + 4) + (acc >> 32);
  util::store_le32(tag.data() + 4, static_cast<std::uint32_t>(acc));
  acc = std::uint64_t{f2} + util::load_le32(pad_ + 8) + (acc >> 32);
  util::store_le32(tag.data() + 8, static_cast<std::uint32_t>(acc));
  acc = std::uint64_t{f3} + util::load_le32(pad_ + 12) + (acc >> 32);
  util::store_le32(tag.data() + 12, static_cast<std::uint32_t>(acc));
  return tag;
}

// RFC 8439 §2.8 over the reference primitives, framed as seal_with_counter
// frames: nonce(12) || ciphertext || tag(16).
inline util::Bytes ref_seal_with_counter(const ChaChaKey& key,
                                         std::uint64_t counter,
                                         std::span<const std::uint8_t> aad,
                                         std::span<const std::uint8_t> plain) {
  // RFC 8439 §2.8 allows at most 2^32 - 1 keystream blocks per nonce.
  if (plain.size() > (std::size_t{1} << 38) - 64) return {};
  ChaChaNonce nonce{};
  util::store_le64(nonce.data() + 4, counter);
  util::Bytes out(nonce.size() + plain.size() + kPolyTagSize);
  std::memcpy(out.data(), nonce.data(), nonce.size());
  if (!plain.empty()) {
    std::memcpy(out.data() + nonce.size(), plain.data(), plain.size());
  }
  const std::span<std::uint8_t> ct(out.data() + nonce.size(), plain.size());
  ref_chacha20_xor(key, 1, nonce, ct);

  std::uint8_t block0[64];
  chacha20_block(key, 0, nonce, block0);
  PolyKey poly_key;
  std::memcpy(poly_key.data(), block0, poly_key.size());
  RefPoly1305 mac(poly_key);
  static constexpr std::uint8_t kZeros[16] = {};
  mac.update(aad);
  mac.update(std::span(kZeros, (16 - aad.size() % 16) % 16));
  mac.update(ct);
  mac.update(std::span(kZeros, (16 - ct.size() % 16) % 16));
  std::uint8_t lengths[16];
  util::store_le64(lengths, aad.size());
  util::store_le64(lengths + 8, ct.size());
  mac.update(lengths);
  const PolyTag tag = mac.finish();
  std::memcpy(out.data() + out.size() - tag.size(), tag.data(), tag.size());
  return out;
}

}  // namespace ea::crypto::reference

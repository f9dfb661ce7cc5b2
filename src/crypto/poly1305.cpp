#include "crypto/poly1305.hpp"

#include <cstring>

#include "util/bytes.hpp"

namespace ea::crypto {
namespace {

using U128 = unsigned __int128;

constexpr std::uint64_t kMask44 = 0xfffffffffff;
constexpr std::uint64_t kMask42 = 0x3ffffffffff;

}  // namespace

Poly1305::Poly1305(const PolyKey& key) {
  // r is clamped per RFC 8439 §2.5.
  const std::uint64_t t0 = util::load_le64(key.data() + 0);
  const std::uint64_t t1 = util::load_le64(key.data() + 8);
  r_[0] = t0 & 0xffc0fffffff;
  r_[1] = ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff;
  r_[2] = (t1 >> 24) & 0x00ffffffc0f;
  pad_[0] = util::load_le64(key.data() + 16);
  pad_[1] = util::load_le64(key.data() + 24);
}

void Poly1305::process_blocks(const std::uint8_t* m, std::size_t blocks,
                              bool final_partial) {
  const std::uint64_t hibit = final_partial ? 0 : (std::uint64_t{1} << 40);
  const std::uint64_t r0 = r_[0], r1 = r_[1], r2 = r_[2];
  // 2^130 = 5 (mod p), and the limbs sit at 2^0, 2^44 and 2^88, so the
  // products that land at 2^132 fold back multiplied by 4 * 5.
  const std::uint64_t s1 = r1 * 20, s2 = r2 * 20;
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];

  for (; blocks > 0; --blocks, m += 16) {
    const std::uint64_t t0 = util::load_le64(m + 0);
    const std::uint64_t t1 = util::load_le64(m + 8);
    h0 += t0 & kMask44;
    h1 += ((t0 >> 44) | (t1 << 20)) & kMask44;
    h2 += ((t1 >> 24) & kMask42) | hibit;

    const U128 d0 = U128{h0} * r0 + U128{h1} * s2 + U128{h2} * s1;
    U128 d1 = U128{h0} * r1 + U128{h1} * r0 + U128{h2} * s2;
    U128 d2 = U128{h0} * r2 + U128{h1} * r1 + U128{h2} * r0;

    // Partial carry: h stays below 2^130 plus a few bits, as in donna.
    d1 += d0 >> 44;
    d2 += d1 >> 44;
    h0 = static_cast<std::uint64_t>(d0) & kMask44;
    h1 = static_cast<std::uint64_t>(d1) & kMask44;
    h2 = static_cast<std::uint64_t>(d2) & kMask42;
    h0 += static_cast<std::uint64_t>(d2 >> 42) * 5;
    h1 += h0 >> 44;
    h0 &= kMask44;
  }

  h_[0] = h0;
  h_[1] = h1;
  h_[2] = h2;
}

void Poly1305::update(std::span<const std::uint8_t> data) {
  std::size_t pos = 0;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(data.size(), std::size_t{16} - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data.data(), take);
    buffer_len_ += take;
    pos += take;
    if (buffer_len_ == 16) {
      process_blocks(buffer_, 1, /*final_partial=*/false);
      buffer_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - pos) / 16;
  process_blocks(data.data() + pos, blocks, /*final_partial=*/false);
  pos += blocks * 16;
  if (pos < data.size()) {
    std::memcpy(buffer_, data.data() + pos, data.size() - pos);
    buffer_len_ = data.size() - pos;
  }
}

PolyTag Poly1305::finish() {
  if (buffer_len_ > 0) {
    // Pad the final partial block with 0x01 then zeros; the hibit is omitted.
    buffer_[buffer_len_] = 1;
    std::memset(buffer_ + buffer_len_ + 1, 0, 16 - buffer_len_ - 1);
    process_blocks(buffer_, 1, /*final_partial=*/true);
    buffer_len_ = 0;
  }

  // Carry h fully (two passes, as poly1305-donna-64), then subtract p
  // = 2^130 - 5 in constant time when h >= p.
  std::uint64_t h0 = h_[0], h1 = h_[1], h2 = h_[2];
  for (int pass = 0; pass < 2; ++pass) {
    h2 += h1 >> 44;
    h1 &= kMask44;
    h0 += (h2 >> 42) * 5;
    h2 &= kMask42;
    h1 += h0 >> 44;
    h0 &= kMask44;
  }
  const std::uint64_t g0 = h0 + 5;
  const std::uint64_t g1 = h1 + (g0 >> 44);
  const std::uint64_t g2 = h2 + (g1 >> 44) - (std::uint64_t{1} << 42);
  const std::uint64_t keep = 0 - (g2 >> 63);  // all-ones if h < p
  h0 = (h0 & keep) | (g0 & kMask44 & ~keep);
  h1 = (h1 & keep) | (g1 & kMask44 & ~keep);
  h2 = (h2 & keep) | (g2 & ~keep);

  // The tag is (h + pad) mod 2^128.
  const U128 tag_value = U128{h0} + (U128{h1} << 44) + (U128{h2} << 88) +
                         ((U128{pad_[1]} << 64) | pad_[0]);
  PolyTag tag{};
  util::store_le64(tag.data() + 0, static_cast<std::uint64_t>(tag_value));
  util::store_le64(tag.data() + 8, static_cast<std::uint64_t>(tag_value >> 64));
  return tag;
}

PolyTag poly1305(const PolyKey& key, std::span<const std::uint8_t> data) {
  Poly1305 mac(key);
  mac.update(data);
  return mac.finish();
}

}  // namespace ea::crypto

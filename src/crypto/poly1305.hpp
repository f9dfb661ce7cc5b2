// Poly1305 one-time authenticator (RFC 8439 §2.5).
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace ea::crypto {

inline constexpr std::size_t kPolyKeySize = 32;
inline constexpr std::size_t kPolyTagSize = 16;

using PolyKey = std::array<std::uint8_t, kPolyKeySize>;
using PolyTag = std::array<std::uint8_t, kPolyTagSize>;

// Incremental Poly1305 over a one-time key.
class Poly1305 {
 public:
  explicit Poly1305(const PolyKey& key);

  void update(std::span<const std::uint8_t> data);
  PolyTag finish();

 private:
  // Absorbs `blocks` whole 16-byte blocks; the final padded partial block
  // passes final_partial to omit the 2^128 bit.
  void process_blocks(const std::uint8_t* m, std::size_t blocks,
                      bool final_partial);

  // 44/44/42-bit limbs with 128-bit products, as in poly1305-donna-64.
  std::uint64_t r_[3]{};
  std::uint64_t h_[3]{};
  std::uint64_t pad_[2]{};
  std::uint8_t buffer_[16]{};
  std::size_t buffer_len_ = 0;
};

PolyTag poly1305(const PolyKey& key, std::span<const std::uint8_t> data);

}  // namespace ea::crypto

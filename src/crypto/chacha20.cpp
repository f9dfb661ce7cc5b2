#include "crypto/chacha20.hpp"

#include <algorithm>
#include <array>

#include "util/bytes.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ea::crypto {
namespace {

// The input block, with every word broadcast to all lanes when W is a
// vector.
template <class W>
void init_state(const ChaChaKey& key, std::uint32_t counter,
                const ChaChaNonce& nonce, std::array<W, 16>& state) {
  state[0] = W{} + 0x61707865;
  state[1] = W{} + 0x3320646e;
  state[2] = W{} + 0x79622d32;
  state[3] = W{} + 0x6b206574;
  for (int i = 0; i < 8; ++i) state[4 + i] = W{} + util::load_le32(&key[i * 4]);
  state[12] = W{} + counter;
  for (int i = 0; i < 3; ++i) state[13 + i] = W{} + util::load_le32(&nonce[i * 4]);
}

template <int C, class W>
inline W rotl(W v) {
  return (v << C) | (v >> (32 - C));
}

template <class W>
inline void quarter_round(W& a, W& b, W& c, W& d) {
  a += b;
  d = rotl<16>(d ^ a);
  c += d;
  b = rotl<12>(b ^ c);
  a += b;
  d = rotl<8>(d ^ a);
  c += d;
  b = rotl<7>(b ^ c);
}

// The 20 rounds, on one block (W = std::uint32_t) or on one block per
// vector lane.
template <class W>
void rounds(std::array<W, 16>& x) {
  for (int round = 0; round < 10; ++round) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
}

#if defined(__SSE2__)

using U32x4 = std::uint32_t __attribute__((vector_size(16)));

// XORs whole 256-byte groups of `data`, four blocks at once, one per lane;
// advances `counter` and returns the bytes consumed.
std::size_t xor_4blocks(const ChaChaKey& key, std::uint32_t& counter,
                        const ChaChaNonce& nonce,
                        std::span<std::uint8_t> data) {
  std::array<U32x4, 16> state;
  init_state(key, 0, nonce, state);
  std::size_t off = 0;
  for (; data.size() - off >= 256; off += 256, counter += 4) {
    // Lanes wrap at 2^32 exactly as counter++ does in the block loop.
    state[12] = counter + U32x4{0, 1, 2, 3};
    std::array<U32x4, 16> x = state;
    rounds(x);
    for (int i = 0; i < 16; ++i) x[i] += state[i];
    // Transpose each group of four words into 16 bytes of each block.
    for (int w = 0; w < 16; w += 4) {
      const auto* v = reinterpret_cast<const __m128i*>(&x[w]);
      const __m128i lo01 = _mm_unpacklo_epi32(v[0], v[1]);
      const __m128i lo23 = _mm_unpacklo_epi32(v[2], v[3]);
      const __m128i hi01 = _mm_unpackhi_epi32(v[0], v[1]);
      const __m128i hi23 = _mm_unpackhi_epi32(v[2], v[3]);
      const __m128i ks[4] = {
          _mm_unpacklo_epi64(lo01, lo23), _mm_unpackhi_epi64(lo01, lo23),
          _mm_unpacklo_epi64(hi01, hi23), _mm_unpackhi_epi64(hi01, hi23)};
      for (int blk = 0; blk < 4; ++blk) {
        auto* q = reinterpret_cast<__m128i*>(&data[off + 64 * blk + 4 * w]);
        _mm_storeu_si128(q, _mm_xor_si128(_mm_loadu_si128(q), ks[blk]));
      }
    }
  }
  return off;
}

#endif  // __SSE2__

}  // namespace

void chacha20_block(const ChaChaKey& key, std::uint32_t counter,
                    const ChaChaNonce& nonce, std::uint8_t out[64]) {
  std::array<std::uint32_t, 16> state;
  init_state(key, counter, nonce, state);
  std::array<std::uint32_t, 16> x = state;
  rounds(x);
  for (int i = 0; i < 16; ++i) util::store_le32(out + i * 4, x[i] + state[i]);
}

void chacha20_xor(const ChaChaKey& key, std::uint32_t counter,
                  const ChaChaNonce& nonce, std::span<std::uint8_t> data) {
  std::size_t off = 0;
#if defined(__SSE2__)
  // SSE2 is part of the x86-64 baseline, so no CPUID probe (which would
  // fault inside an SGX enclave) is needed to take this path.
  off = xor_4blocks(key, counter, nonce, data);
#endif
  // The tail (everything, without SSE2) block by block, in 8-byte words.
  std::uint8_t block[64];
  for (; off < data.size(); off += 64) {
    chacha20_block(key, counter++, nonce, block);
    const std::size_t take = std::min<std::size_t>(64, data.size() - off);
    std::uint8_t* p = data.data() + off;
    std::size_t i = 0;
    for (; i + 8 <= take; i += 8) {
      util::store_le64(p + i, util::load_le64(p + i) ^ util::load_le64(block + i));
    }
    for (; i < take; ++i) p[i] ^= block[i];
  }
}

}  // namespace ea::crypto

#include "crypto/x25519.hpp"

#include <cstring>

#include "crypto/rng.hpp"
#include "util/bytes.hpp"

namespace ea::crypto {
namespace {

// Field arithmetic over p = 2^255 - 19 on five unsigned 51-bit limbs:
// h = h[0] + h[1]*2^51 + h[2]*2^102 + h[3]*2^153 + h[4]*2^204. Since
// 2^255 = 19 (mod p), a product's part above limb 4 folds back in times 19.
//
// Limb bounds, B = 2^51 (every function below states what it assumes):
//   carried    fe_mul/fe_sq/fe_mul121666 output: limbs < 1.01B
//   fe_add     two carried inputs -> limbs < 2.02B
//   fe_sub     two carried inputs -> limbs < 3.01B (adds 2p, stays >= 0)
// and fe_mul/fe_sq accept any inputs with limbs < 3.1B, which covers every
// call in the ladder and the inversion chain.
using Fe = std::array<std::uint64_t, 5>;
using U128 = unsigned __int128;

constexpr std::uint64_t kMask51 = (std::uint64_t{1} << 51) - 1;

U128 mul_wide(std::uint64_t a, std::uint64_t b) {
  return static_cast<U128>(a) * b;
}

// Loads a little-endian 32-byte string. Bit 255 is masked off (RFC 7748
// §5); values in [p, 2^255) are kept as they are, which the arithmetic
// treats exactly like their reduced forms. Output limbs < B.
void fe_frombytes(Fe& h, const std::uint8_t* s) {
  h[0] = util::load_le64(s) & kMask51;
  h[1] = (util::load_le64(s + 6) >> 3) & kMask51;
  h[2] = (util::load_le64(s + 12) >> 6) & kMask51;
  h[3] = (util::load_le64(s + 19) >> 1) & kMask51;
  h[4] = (util::load_le64(s + 24) >> 12) & kMask51;
}

// One carry pass from 128-bit column sums (each < 2^112): limb 4's carry
// folds into limb 0 times 19, and limb 0's new carry moves into limb 1.
// The fold stays in 128 bits because 19 * (r4 >> 51) can exceed 2^64.
// Output: limbs < 1.01B (limb 1 may exceed B by < 2^15).
void fe_carry(Fe& h, U128 r0, U128 r1, U128 r2, U128 r3, U128 r4) {
  r1 += r0 >> 51;
  r2 += r1 >> 51;
  r3 += r2 >> 51;
  r4 += r3 >> 51;
  r0 = (r0 & kMask51) + 19 * (r4 >> 51);
  h[0] = static_cast<std::uint64_t>(r0) & kMask51;
  h[1] = (static_cast<std::uint64_t>(r1) & kMask51) +
         static_cast<std::uint64_t>(r0 >> 51);
  h[2] = static_cast<std::uint64_t>(r2) & kMask51;
  h[3] = static_cast<std::uint64_t>(r3) & kMask51;
  h[4] = static_cast<std::uint64_t>(r4) & kMask51;
}

// Writes the canonical encoding (value fully reduced below p). Input: any
// limbs < 2^63. One carry pass leaves limb 1 <= B and the others < B, so
// the value is below 2^255 + 2^51 < 2p. The carry out of value + 19 is then
// q = 1 exactly when the value is >= p, and adding 19q and dropping bit
// 255 subtracts qp.
void fe_tobytes(std::uint8_t* s, const Fe& in) {
  Fe h = in;
  fe_carry(h, h[0], h[1], h[2], h[3], h[4]);
  std::uint64_t q = (h[0] + 19) >> 51;
  for (std::size_t i = 1; i < 5; ++i) q = (h[i] + q) >> 51;
  h[0] += 19 * q;
  for (std::size_t i = 0; i < 4; ++i) {
    h[i + 1] += h[i] >> 51;
    h[i] &= kMask51;
  }
  h[4] &= kMask51;

  util::store_le64(s, h[0] | (h[1] << 51));
  util::store_le64(s + 8, (h[1] >> 13) | (h[2] << 38));
  util::store_le64(s + 16, (h[2] >> 26) | (h[3] << 25));
  util::store_le64(s + 24, (h[3] >> 39) | (h[4] << 12));
}

// Inputs carried; output limbs < 2.02B.
void fe_add(Fe& h, const Fe& f, const Fe& g) {
  for (std::size_t i = 0; i < 5; ++i) h[i] = f[i] + g[i];
}

// f - g + 2p. Inputs carried (g's limbs < 1.01B stay below 2p's limbs,
// 2^52 - 38 and 2^52 - 2); output limbs < 3.01B.
void fe_sub(Fe& h, const Fe& f, const Fe& g) {
  constexpr std::uint64_t kTwoP0 = 2 * (kMask51 - 18);
  constexpr std::uint64_t kTwoPi = 2 * kMask51;
  h[0] = f[0] + kTwoP0 - g[0];
  for (std::size_t i = 1; i < 5; ++i) h[i] = f[i] + kTwoPi - g[i];
}

// Schoolbook product, 25 products. Inputs: limbs < 3.1B, so 19 * g[i] fits
// in 64 bits and each column sum is < 5 * 19 * 9.61 B^2 < 2^112. Output
// carried.
void fe_mul(Fe& h, const Fe& f, const Fe& g) {
  const std::uint64_t g1 = 19 * g[1], g2 = 19 * g[2], g3 = 19 * g[3],
                      g4 = 19 * g[4];
  fe_carry(h,
           mul_wide(f[0], g[0]) + mul_wide(f[1], g4) + mul_wide(f[2], g3) +
               mul_wide(f[3], g2) + mul_wide(f[4], g1),
           mul_wide(f[0], g[1]) + mul_wide(f[1], g[0]) + mul_wide(f[2], g4) +
               mul_wide(f[3], g3) + mul_wide(f[4], g2),
           mul_wide(f[0], g[2]) + mul_wide(f[1], g[1]) +
               mul_wide(f[2], g[0]) + mul_wide(f[3], g4) + mul_wide(f[4], g3),
           mul_wide(f[0], g[3]) + mul_wide(f[1], g[2]) +
               mul_wide(f[2], g[1]) + mul_wide(f[3], g[0]) +
               mul_wide(f[4], g4),
           mul_wide(f[0], g[4]) + mul_wide(f[1], g[3]) +
               mul_wide(f[2], g[2]) + mul_wide(f[3], g[1]) +
               mul_wide(f[4], g[0]));
}

// Dedicated square, 15 products (cross terms doubled once). Input: limbs
// < 3.1B, so each column sum is < (1 + 4 * 19) * 9.61 B^2 < 2^112. Output
// carried.
void fe_sq(Fe& h, const Fe& f) {
  const std::uint64_t d0 = 2 * f[0], d1 = 2 * f[1], d2 = 2 * f[2],
                      d3 = 2 * f[3];
  const std::uint64_t f3 = 19 * f[3], f4 = 19 * f[4];
  fe_carry(h, mul_wide(f[0], f[0]) + mul_wide(d1, f4) + mul_wide(d2, f3),
           mul_wide(d0, f[1]) + mul_wide(d2, f4) + mul_wide(f[3], f3),
           mul_wide(d0, f[2]) + mul_wide(f[1], f[1]) + mul_wide(d3, f4),
           mul_wide(d0, f[3]) + mul_wide(d1, f[2]) + mul_wide(f[4], f4),
           mul_wide(d0, f[4]) + mul_wide(d1, f[3]) + mul_wide(f[2], f[2]));
}

// Times a24 + 1 = 121666. Input: limbs < 3.1B; output carried.
void fe_mul121666(Fe& h, const Fe& f) {
  constexpr std::uint64_t k = 121666;
  fe_carry(h, mul_wide(f[0], k), mul_wide(f[1], k), mul_wide(f[2], k),
           mul_wide(f[3], k), mul_wide(f[4], k));
}

void fe_invert(Fe& out, const Fe& z) {
  // z^(p-2) via the standard addition chain.
  Fe t0, t1, t2, t3;
  fe_sq(t0, z);
  fe_sq(t1, t0);
  fe_sq(t1, t1);
  fe_mul(t1, z, t1);
  fe_mul(t0, t0, t1);
  fe_sq(t2, t0);
  fe_mul(t1, t1, t2);
  fe_sq(t2, t1);
  for (int i = 1; i < 5; ++i) fe_sq(t2, t2);
  fe_mul(t1, t2, t1);
  fe_sq(t2, t1);
  for (int i = 1; i < 10; ++i) fe_sq(t2, t2);
  fe_mul(t2, t2, t1);
  fe_sq(t3, t2);
  for (int i = 1; i < 20; ++i) fe_sq(t3, t3);
  fe_mul(t2, t3, t2);
  fe_sq(t2, t2);
  for (int i = 1; i < 10; ++i) fe_sq(t2, t2);
  fe_mul(t1, t2, t1);
  fe_sq(t2, t1);
  for (int i = 1; i < 50; ++i) fe_sq(t2, t2);
  fe_mul(t2, t2, t1);
  fe_sq(t3, t2);
  for (int i = 1; i < 100; ++i) fe_sq(t3, t3);
  fe_mul(t2, t3, t2);
  fe_sq(t2, t2);
  for (int i = 1; i < 50; ++i) fe_sq(t2, t2);
  fe_mul(t1, t2, t1);
  fe_sq(t1, t1);
  for (int i = 1; i < 5; ++i) fe_sq(t1, t1);
  fe_mul(out, t1, t0);
}

// Swaps f and g when swap == 1, without a branch on it.
void fe_cswap(Fe& f, Fe& g, std::uint64_t swap) {
  const std::uint64_t mask = 0 - swap;
  for (std::size_t i = 0; i < 5; ++i) {
    const std::uint64_t x = mask & (f[i] ^ g[i]);
    f[i] ^= x;
    g[i] ^= x;
  }
}

}  // namespace

X25519Key x25519(const X25519Key& scalar, const X25519Key& point) {
  std::uint8_t e[32];
  std::memcpy(e, scalar.data(), 32);
  e[0] &= 248;
  e[31] &= 127;
  e[31] |= 64;

  Fe x1;
  fe_frombytes(x1, point.data());
  Fe x2 = {1, 0, 0, 0, 0};
  Fe z2 = {0, 0, 0, 0, 0};
  Fe x3 = x1;
  Fe z3 = {1, 0, 0, 0, 0};

  std::uint64_t swap = 0;
  for (int pos = 254; pos >= 0; --pos) {
    std::uint64_t b = (e[pos / 8] >> (pos & 7)) & 1;
    swap ^= b;
    fe_cswap(x2, x3, swap);
    fe_cswap(z2, z3, swap);
    swap = b;

    Fe tmp0, tmp1, a, b2, aa, bb, c, d, cb, da;
    fe_sub(tmp0, x3, z3);
    fe_sub(tmp1, x2, z2);
    fe_add(a, x2, z2);
    fe_add(b2, x3, z3);
    fe_mul(da, tmp0, a);   // (x3-z3)(x2+z2)
    fe_mul(cb, tmp1, b2);  // (x2-z2)(x3+z3)
    fe_add(x3, da, cb);
    fe_sub(z3, da, cb);
    fe_sq(x3, x3);
    fe_sq(z3, z3);
    fe_mul(z3, z3, x1);
    fe_sq(aa, a);
    fe_sq(bb, tmp1);
    fe_sub(c, aa, bb);  // E = AA - BB
    fe_mul121666(d, c);
    fe_add(d, d, bb);
    fe_mul(x2, aa, bb);
    fe_mul(z2, c, d);
  }
  fe_cswap(x2, x3, swap);
  fe_cswap(z2, z3, swap);
  util::secure_zero(e, sizeof(e));

  Fe zinv;
  fe_invert(zinv, z2);
  Fe out;
  fe_mul(out, x2, zinv);
  X25519Key result{};
  fe_tobytes(result.data(), out);
  return result;
}

X25519Key x25519_base(const X25519Key& scalar) {
  X25519Key base{};
  base[0] = 9;
  return x25519(scalar, base);
}

X25519Key x25519_keygen() {
  X25519Key key;
  secure_random(key);
  key[0] &= 248;
  key[31] &= 127;
  key[31] |= 64;
  return key;
}

}  // namespace ea::crypto

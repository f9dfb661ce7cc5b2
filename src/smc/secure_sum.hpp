// Secure multi-party sum protocol (paper §5.2, Fig. 8).
//
// K parties, each holding a secret vector, compute the element-wise sum of
// all vectors without revealing any individual vector. Ring protocol:
// P1 masks its secret with a random vector Rnd and passes Secret1+Rnd to
// P2; each subsequent party adds its secret; P1 finally subtracts Rnd.
// Arithmetic is modulo 2^32 (element wraparound), which preserves the
// masking argument. Every hop is encrypted so neither the untrusted runtime
// nor other parties learn partial sums.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace ea::smc {

using Element = std::uint32_t;
using Vec = std::vector<Element>;

struct SmcConfig {
  int parties = 3;
  std::size_t dim = 1;
  // Case #2 of the evaluation: parties recompute their secrets after every
  // completed sum (paper §6.3.2).
  bool dynamic = false;
};

inline void add_in_place(Vec& acc, const Vec& other) {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += other[i];
}

inline void sub_in_place(Vec& acc, const Vec& other) {
  for (std::size_t i = 0; i < acc.size(); ++i) acc[i] -= other[i];
}

// The per-round secret refresh used in the "dynamically computed vectors"
// experiments: a cheap deterministic mix per element, standing in for the
// application-level recomputation the paper applies.
inline void update_secret(Vec& v) {
  for (Element& x : v) {
    x = x * 1664525u + 1013904223u;
    x ^= x >> 13;
    x *= 0x85ebca6bu;
    x ^= x >> 16;
  }
}

// Writes `v` as little-endian elements at `out` (v.size() * 4 bytes).
// The byte loops below read `v` through locals: a store through a byte
// pointer may alias the vector itself, which would stop vectorisation.
inline void serialize_into(std::uint8_t* out, const Vec& v) {
  const Element* in = v.data();
  for (std::size_t i = 0, n = v.size(); i < n; ++i) {
    util::store_le32(out + i * 4, in[i]);
  }
}

inline util::Bytes serialize(const Vec& v) {
  util::Bytes out(v.size() * sizeof(Element));
  serialize_into(out.data(), v);
  return out;
}

// add_in_place / sub_in_place on a vector serialised at `bytes`, so a hop
// works on the token where it was opened.
inline void add_to_bytes(std::uint8_t* bytes, const Vec& v) {
  const Element* in = v.data();
  for (std::size_t i = 0, n = v.size(); i < n; ++i) {
    util::store_le32(bytes + i * 4, util::load_le32(bytes + i * 4) + in[i]);
  }
}

inline void sub_from_bytes(std::uint8_t* bytes, const Vec& v) {
  const Element* in = v.data();
  for (std::size_t i = 0, n = v.size(); i < n; ++i) {
    util::store_le32(bytes + i * 4, util::load_le32(bytes + i * 4) - in[i]);
  }
}

inline Vec deserialize(std::span<const std::uint8_t> bytes) {
  Vec v(bytes.size() / sizeof(Element));
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = util::load_le32(bytes.data() + i * 4);
  }
  return v;
}

// Deterministic initial secret of party `index`, so tests can predict the
// expected sum; every deployment of the ring starts from it.
Vec initial_secret(int index, std::size_t dim);

// Fills `v` with fresh randomness from the *trusted* RNG — this is the
// sgx_read_rand path the paper identifies as the large-vector bottleneck.
void refill_random_trusted(Vec& v);

}  // namespace ea::smc

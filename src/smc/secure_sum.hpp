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

// Party 0's masks, the one way a ring gets its Rnd. Every invocation gets
// one fresh draw of dim × 4 bytes from the *trusted* RNG — the
// sgx_read_rand path the paper identifies as the large-vector bottleneck
// (§6.3.1) — used for one round only. A ring party draws the next mask in
// kChunkBytes steps in the quanta it would otherwise idle away while the
// current token travels (draw_some()); the single-threaded SDK ring has no
// such quanta and draws all of it when the round starts (take()).
class MaskAhead {
 public:
  // A returning token waits for at most one chunk of the draw.
  static constexpr std::size_t kChunkBytes = 512;

  MaskAhead() = default;
  explicit MaskAhead(std::size_t dim) : current_(dim), next_(dim) {}

  // Draws the next chunk of the next mask. False once that mask is
  // complete: a source never runs more than one mask ahead.
  bool draw_some();

  // Draws whatever the next mask still lacks, makes it the current mask —
  // the round's, until the round is unmasked — and starts the next one.
  const Vec& take();

  const Vec& current() const noexcept { return current_; }

 private:
  Vec current_;
  Vec next_;
  std::size_t drawn_ = 0;  // bytes of next_ drawn so far
};

}  // namespace ea::smc

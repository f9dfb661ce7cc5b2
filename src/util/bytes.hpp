// Small byte-manipulation helpers shared by the crypto substrate, the
// persistent object store and the benchmarks.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace ea::util {

using Bytes = std::vector<std::uint8_t>;

// Little-endian load/store (ChaCha20/Poly1305 and the POS on-disk format
// are defined little-endian).
inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;  // x86 is little-endian; memcpy keeps it UB-free.
}

inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  std::memcpy(p, &v, sizeof(v));
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

inline std::uint32_t rotl32(std::uint32_t v, int c) {
  return (v << c) | (v >> (32 - c));
}

// Hex encoding/decoding for test vectors and debug output.
std::string to_hex(std::span<const std::uint8_t> data);
Bytes from_hex(std::string_view hex);

// Converts a string to a byte vector (no terminator).
Bytes to_bytes(std::string_view s);
std::string to_string(std::span<const std::uint8_t> data);

// Constant-time comparison; returns true when equal. Used for MAC checks.
bool ct_equal(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

// Zeroes a buffer in one memset the compiler may not drop as a dead store:
// the empty asm takes the buffer's address and clobbers memory, so the
// compiler must assume something reads the zeroes (BoringSSL's
// OPENSSL_cleanse idiom). Sealing staging buffers hold secrets (plaintext
// actor state, the migration transfer frame) and must be wiped before the
// backing allocation is released; the enclave lint's seal-plaintext-zeroize
// rule enforces that every sealing call site does so.
inline void secure_zero(void* p, std::size_t n) {
  if (n == 0) return;
  std::memset(p, 0, n);
  asm volatile("" : : "r"(p) : "memory");
}

inline void secure_zero(Bytes& b) { secure_zero(b.data(), b.size()); }

// Deterministic pseudo-random printable string of length `n` (benchmark
// payloads: the paper fills ping-pong messages with pseudo-random strings).
std::string random_printable(std::uint64_t seed, std::size_t n);

}  // namespace ea::util

// The sealing rule for every hop between enclaves (DESIGN.md §9).
//
// Node and socket memory are untrusted, so a message that leaves one
// enclave for another travels sealed with ChaCha20-Poly1305
// (crypto/aead.hpp) in a nonce(12) || ciphertext || tag(16) frame. A
// HopSeal is one link's key and counters. core::Channel — carried through
// an mbox or over TCP (net/channel_link.hpp), which moves the sealed frame
// as [u32 len][frame] and never opens it — and smc::SdkSecureSum seal and
// open through it, so every hop is keyed, counted and checked the same way:
//
//   * Key. Local attestation yields one key per enclave pair, the same in
//     both orders and after an enclave-manager reset. link() derives the
//     link's own key from it by HKDF with 32 fresh random bytes, so no two
//     links share a key, and neither does one link before and after it is
//     derived again.
//   * Nonce. 0^4 || le64(counter), counted per sending side with the side
//     in the counter's top bit, so the two directions never share a nonce.
//     The AAD is the sender's side.
//   * Replay guard. open() accepts a frame only if its authenticated
//     counter carries the peer's side and is not below the next one
//     expected from it: a reflected, spliced, duplicated or overtaken frame
//     fails. A carried channel writes its last frame again on every new
//     connection; the guard drops that copy when the first had arrived.
//
// Each end calls seal() and open() with its own side (0 or 1). Both ends of
// a link may share one HopSeal (a channel) or hold a copy each: a side's
// counters are touched only by that side's sender or receiver.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "crypto/aead.hpp"
#include "sgxsim/enclave.hpp"

namespace ea::core {

class HopSeal {
 public:
  // Offset of the plaintext inside a frame, and the bytes sealing adds.
  static constexpr std::size_t kHeader = crypto::kAeadNonceSize;
  static constexpr std::size_t kOverhead = crypto::kAeadOverhead;

  // Attests `a` and `b` to each other and derives a fresh link key from
  // their pair key; nullopt when attestation fails.
  static std::optional<HopSeal> link(const sgxsim::Enclave& a,
                                     const sgxsim::Enclave& b);

  // Seals the plaintext at frame[kHeader, frame.size() - kTagSize) as
  // `side`: encrypts it in place and writes the nonce and tag.
  void seal(int side, std::span<std::uint8_t> frame);

  // Opens in place a frame the peer of `side` sealed. On success the
  // plaintext sits at frame[kHeader, kHeader + plain_len). False, with the
  // frame's bytes unusable, on a failed tag or a counter that is
  // reflected, replayed or out of order.
  bool open(int side, std::span<std::uint8_t> frame,
            std::size_t& plain_len);

 private:
  HopSeal() = default;

  crypto::AeadKey key_{};
  // Per side: the next counter it seals with, and the lowest counter its
  // peer will accept from it.
  std::uint64_t send_next_[2] = {0, std::uint64_t{1} << 63};
  std::uint64_t recv_next_[2] = {0, std::uint64_t{1} << 63};
};

}  // namespace ea::core

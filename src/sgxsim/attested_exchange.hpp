// Attested Diffie-Hellman key exchange over remote attestation.
//
// The standard SGX remote-provisioning pattern: each side generates an
// ephemeral X25519 key pair and embeds the public key into its quote's
// report data. Verifying the quote therefore authenticates the key — a
// man-in-the-middle cannot substitute its own public value without
// breaking the attestation signature. The shared AEAD key is derived from
// the ECDH secret and both measurements via HKDF.
//
// Unlike sgxsim/attestation.hpp's local attestation (which derives keys
// directly from the device root), this exchange works between *platforms*:
// the verifier only needs the attestation verification material.
#pragma once

#include <optional>

#include "crypto/aead.hpp"
#include "crypto/x25519.hpp"
#include "sgxsim/remote_attestation.hpp"

namespace ea::sgxsim {

// One endpoint of the handshake, owned by an enclave.
class AttestedExchange {
 public:
  // Generates the ephemeral key pair and the quote binding it, targeted at
  // the peer's freshness nonce.
  AttestedExchange(const Enclave& self, std::uint64_t peer_nonce);
  // Wipes the ephemeral private key; no copy or move may duplicate it.
  ~AttestedExchange();
  AttestedExchange(const AttestedExchange&) = delete;
  AttestedExchange& operator=(const AttestedExchange&) = delete;
  AttestedExchange(AttestedExchange&&) = delete;
  AttestedExchange& operator=(AttestedExchange&&) = delete;

  const Quote& quote() const noexcept { return quote_; }

  // Completes the handshake with the peer's quote: verifies it (signature,
  // our nonce, optionally an expected measurement) and derives the shared
  // session key. Returns nullopt when verification fails.
  std::optional<crypto::AeadKey> complete(
      const Quote& peer_quote, std::uint64_t my_nonce,
      const AttestationVerifier& verifier,
      const crypto::Sha256Digest* expected_measurement = nullptr) const;

 private:
  const Enclave& self_;
  crypto::X25519Key private_key_;
  Quote quote_;
};

}  // namespace ea::sgxsim

// Encrypted view over the POS (paper §4.1, "Storage encryption").
//
// Keys are encrypted *deterministically* so the store can locate a value by
// comparing encrypted keys without decrypting them; bucket hashes are
// computed over the encrypted key. To preserve integrity, key and value are
// not stored separately: the stored value is the AEAD-sealed combination of
// both, and decryption verifies the embedded key matches.
//
// The master key lives in the owning eactor's private state; to survive
// reboots it can be stored *sealed* inside the POS itself under a
// well-known (plaintext) name.
#pragma once

#include <optional>
#include <span>

#include "crypto/deterministic.hpp"
#include "pos/pos.hpp"
#include "sgxsim/enclave.hpp"

namespace ea::pos {

class EncryptedPos {
 public:
  // Wraps `store` with the given 32-byte master key.
  EncryptedPos(Pos& store, std::span<const std::uint8_t> master_key);

  bool set(std::span<const std::uint8_t> key,
           std::span<const std::uint8_t> value);
  std::optional<util::Bytes> get(std::span<const std::uint8_t> key);
  bool erase(std::span<const std::uint8_t> key);

  // Persists the master key, sealed to `enclave`, under the plaintext name
  // `slot` inside the underlying store.
  bool store_sealed_master(const sgxsim::Enclave& enclave,
                           std::string_view slot,
                           std::span<const std::uint8_t> master_key);

  // Recovers a sealed master key (only succeeds inside the same enclave
  // identity). Returns the wrapper on success.
  static std::optional<EncryptedPos> load_sealed_master(
      Pos& store, const sgxsim::Enclave& enclave, std::string_view slot);

 private:
  util::Bytes wrap_key(std::span<const std::uint8_t> key) const;

  Pos& store_;
  crypto::DetKey det_key_;
  crypto::AeadKey pair_key_{};
};

}  // namespace ea::pos

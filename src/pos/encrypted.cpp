#include "pos/encrypted.hpp"

#include <cstring>

#include "crypto/hkdf.hpp"
#include "crypto/rng.hpp"
#include "sgxsim/sealing.hpp"
#include "util/bytes.hpp"

namespace ea::pos {

EncryptedPos::EncryptedPos(Pos& store,
                           std::span<const std::uint8_t> master_key)
    : store_(store), det_key_(crypto::derive_det_key(master_key)) {
  static constexpr std::uint8_t kInfo[] = "ea-pos-pair-key";
  util::Bytes okm = crypto::hkdf(
      {}, master_key, std::span<const std::uint8_t>(kInfo, sizeof(kInfo) - 1),
      crypto::kAeadKeySize);
  std::memcpy(pair_key_.data(), okm.data(), pair_key_.size());
}

util::Bytes EncryptedPos::wrap_key(std::span<const std::uint8_t> key) const {
  return crypto::det_encrypt(det_key_, key);
}

bool EncryptedPos::set(std::span<const std::uint8_t> key,
                       std::span<const std::uint8_t> value) {
  // One epoch section per logical operation: the seal + store sequence
  // rides a single announcement (sections nest, so the inner Pos::set
  // re-enter is free) and the cleaner treats the whole encrypted op as one
  // read-side critical section.
  Pos::Section section(store_);
  util::Bytes enc_key = wrap_key(key);
  // Combined pair: klen(4) || key || value, AEAD-sealed with the encrypted
  // key as associated data — swapping values between keys is detected.
  util::Bytes pair;
  pair.resize(4 + key.size() + value.size());
  util::store_le32(pair.data(), static_cast<std::uint32_t>(key.size()));
  std::memcpy(pair.data() + 4, key.data(), key.size());
  if (!value.empty()) {
    std::memcpy(pair.data() + 4 + key.size(), value.data(), value.size());
  }
  // Every instance built on this master key (a reboot builds a new one)
  // shares pair_key_, so the nonce counter is drawn at random, never
  // counted locally.
  std::uint8_t counter[8];
  crypto::secure_random(counter);
  util::Bytes sealed = crypto::seal_with_counter(
      pair_key_, util::load_le64(counter), enc_key, pair);
  return store_.set(enc_key, sealed);
}

std::optional<util::Bytes> EncryptedPos::get(
    std::span<const std::uint8_t> key) {
  // The lookup, AEAD open and embedded-key check are one logical read:
  // pin one epoch across all of it.
  Pos::Section section(store_);
  util::Bytes enc_key = wrap_key(key);
  std::optional<util::Bytes> sealed = store_.get(enc_key);
  if (!sealed.has_value()) return std::nullopt;
  std::optional<util::Bytes> pair =
      crypto::open_framed(pair_key_, enc_key, *sealed);
  if (!pair.has_value() || pair->size() < 4) return std::nullopt;
  std::uint32_t klen = util::load_le32(pair->data());
  if (4 + klen > pair->size()) return std::nullopt;
  // Integrity: the embedded plaintext key must match what we asked for.
  if (klen != key.size() ||
      std::memcmp(pair->data() + 4, key.data(), klen) != 0) {
    return std::nullopt;
  }
  return util::Bytes(pair->begin() + 4 + klen, pair->end());
}

bool EncryptedPos::erase(std::span<const std::uint8_t> key) {
  Pos::Section section(store_);
  return store_.erase(wrap_key(key));
}

bool EncryptedPos::store_sealed_master(
    const sgxsim::Enclave& enclave, std::string_view slot,
    std::span<const std::uint8_t> master_key) {
  // `sealed` is ciphertext; the plaintext master_key span is owned (and
  // wiped) by the caller.
  // ea-lint: allow-next-line(seal-plaintext-zeroize)
  util::Bytes sealed = sgxsim::seal(enclave, master_key);
  return store_.set(util::to_bytes(slot), sealed);
}

std::optional<EncryptedPos> EncryptedPos::load_sealed_master(
    Pos& store, const sgxsim::Enclave& enclave, std::string_view slot) {
  std::optional<util::Bytes> sealed = store.get(util::to_bytes(slot));
  if (!sealed.has_value()) return std::nullopt;
  std::optional<util::Bytes> master = sgxsim::unseal(enclave, *sealed);
  if (!master.has_value()) return std::nullopt;
  // The constructor derives det_key_/pair_key_ from the master key; the
  // unsealed plaintext itself must not outlive this function.
  EncryptedPos pos(store, *master);
  util::secure_zero(*master);
  return pos;
}

}  // namespace ea::pos

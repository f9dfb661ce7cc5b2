#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crypto/aead.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/deterministic.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/poly1305.hpp"
#include "crypto/rng.hpp"
#include "crypto/sha256.hpp"
#include "crypto/x25519.hpp"
#include "crypto_reference.hpp"
#include "util/bytes.hpp"

namespace ea::crypto {
namespace {

using util::Bytes;
using util::from_hex;
using util::to_hex;

// --- SHA-256 (FIPS 180-4 / NIST CAVS vectors) ------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256(std::string_view{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(std::string_view{"abc"})),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(std::string_view{
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"})),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string msg = util::random_printable(1, 1000);
  for (std::size_t split = 0; split <= msg.size(); split += 97) {
    Sha256 h;
    h.update(std::string_view(msg).substr(0, split));
    h.update(std::string_view(msg).substr(split));
    EXPECT_EQ(h.finish(), sha256(msg)) << "split=" << split;
  }
}

// --- HMAC-SHA-256 (RFC 4231) ------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto mac = hmac_sha256(key, util::to_bytes("Hi There"));
  EXPECT_EQ(to_hex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  auto mac = hmac_sha256(util::to_bytes("Jefe"),
                         util::to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(to_hex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  auto mac = hmac_sha256(key, data);
  EXPECT_EQ(to_hex(mac),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  auto mac = hmac_sha256(
      key, util::to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(to_hex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --- HKDF (RFC 5869) ----------------------------------------------------------

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(to_hex(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  Bytes ikm(22, 0x0b);
  Bytes okm = hkdf({}, ikm, {}, 42);
  EXPECT_EQ(to_hex(okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, RejectsTooLong) {
  Bytes ikm(22, 0x0b);
  Sha256Digest prk = hkdf_extract({}, ikm);
  EXPECT_THROW(hkdf_expand(prk, {}, 256 * 32), std::invalid_argument);
}

// --- ChaCha20 (RFC 8439 §2.4.2) ----------------------------------------------

TEST(ChaCha20, Rfc8439KeystreamVector) {
  ChaChaKey key;
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i);
  }
  ChaChaNonce nonce = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes data = util::to_bytes(plaintext);
  chacha20_xor(key, 1, nonce, data);
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(data.data(), 16)),
            "6e2e359a2568f98041ba0728dd0d6981");
}

TEST(ChaCha20, XorIsInvolution) {
  ChaChaKey key{};
  key[0] = 7;
  ChaChaNonce nonce{};
  Bytes data = util::to_bytes(util::random_printable(3, 1000));
  Bytes orig = data;
  chacha20_xor(key, 5, nonce, data);
  EXPECT_NE(data, orig);
  chacha20_xor(key, 5, nonce, data);
  EXPECT_EQ(data, orig);
}

// --- Poly1305 (RFC 8439 §2.5.2) ------------------------------------------------

TEST(Poly1305, Rfc8439Vector) {
  PolyKey key;
  Bytes key_bytes = from_hex(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  auto tag = poly1305(key, util::to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(to_hex(tag), "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  PolyKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  Bytes msg = util::to_bytes(util::random_printable(9, 517));
  auto expected = poly1305(key, msg);
  for (std::size_t split : {0u, 1u, 15u, 16u, 17u, 100u, 517u}) {
    Poly1305 mac(key);
    mac.update(std::span<const std::uint8_t>(msg.data(), split));
    mac.update(std::span<const std::uint8_t>(msg.data() + split,
                                             msg.size() - split));
    EXPECT_EQ(mac.finish(), expected) << "split=" << split;
  }
}

// --- AEAD (RFC 8439 §2.8.2) -----------------------------------------------------

TEST(Aead, Rfc8439Vector) {
  AeadKey key;
  Bytes key_bytes = from_hex(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  std::copy(key_bytes.begin(), key_bytes.end(), key.begin());
  AeadNonce nonce = {0x07, 0x00, 0x00, 0x00, 0x40, 0x41,
                     0x42, 0x43, 0x44, 0x45, 0x46, 0x47};
  Bytes aad = from_hex("50515253c0c1c2c3c4c5c6c7");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes sealed = aead_encrypt(key, nonce, aad, util::to_bytes(plaintext));
  ASSERT_EQ(sealed.size(), plaintext.size() + kAeadTagSize);
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(sealed.data(), 16)),
            "d31a8d34648e60db7b86afbc53ef7ec2");
  EXPECT_EQ(to_hex(std::span<const std::uint8_t>(
                sealed.data() + plaintext.size(), kAeadTagSize)),
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = aead_decrypt(key, nonce, aad, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(util::to_string(*opened), plaintext);
}

TEST(Aead, TamperedCiphertextRejected) {
  AeadKey key{};
  key[0] = 1;
  AeadNonce nonce{};
  Bytes sealed = aead_encrypt(key, nonce, {}, util::to_bytes("secret"));
  sealed[2] ^= 0x40;
  EXPECT_FALSE(aead_decrypt(key, nonce, {}, sealed).has_value());
}

TEST(Aead, TamperedAadRejected) {
  AeadKey key{};
  AeadNonce nonce{};
  Bytes aad = util::to_bytes("context");
  Bytes sealed = aead_encrypt(key, nonce, aad, util::to_bytes("secret"));
  Bytes bad_aad = util::to_bytes("Context");
  EXPECT_FALSE(aead_decrypt(key, nonce, bad_aad, sealed).has_value());
  EXPECT_TRUE(aead_decrypt(key, nonce, aad, sealed).has_value());
}

TEST(Aead, WrongKeyRejected) {
  AeadKey key{};
  AeadKey other{};
  other[31] = 9;
  AeadNonce nonce{};
  Bytes sealed = aead_encrypt(key, nonce, {}, util::to_bytes("secret"));
  EXPECT_FALSE(aead_decrypt(other, nonce, {}, sealed).has_value());
}

TEST(Aead, FramedRoundTrip) {
  AeadKey key{};
  key[5] = 0x7a;
  Bytes aad = util::to_bytes("dir0");
  Bytes msg = util::to_bytes("payload data");
  Bytes framed = seal_with_counter(key, 1234, aad, msg);
  EXPECT_EQ(framed.size(), msg.size() + kAeadOverhead);
  auto opened = open_framed(key, aad, framed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

TEST(Aead, FramedCountersProduceDistinctCiphertexts) {
  AeadKey key{};
  Bytes msg = util::to_bytes("same message");
  Bytes a = seal_with_counter(key, 1, {}, msg);
  Bytes b = seal_with_counter(key, 2, {}, msg);
  EXPECT_NE(a, b);
}

TEST(Aead, FramedTooShortRejected) {
  AeadKey key{};
  Bytes garbage(kAeadOverhead - 1, 0);
  EXPECT_FALSE(open_framed(key, {}, garbage).has_value());
}

// A frame sealed in place opens in place only under the AAD it was sealed
// with and only while intact; the allocating opener reads it too.
TEST(Aead, FramedInPlaceBindsAadAndRejectsFlippedByte) {
  AeadKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7 + 3);
  }
  const std::uint8_t aad[1] = {0};
  const std::uint8_t other_aad[1] = {1};
  Bytes frame(kAeadOverhead + 24);
  for (std::size_t i = 0; i < 24; ++i) {
    frame[kAeadNonceSize + i] = static_cast<std::uint8_t>(i);
  }
  const Bytes plain(frame.begin() + kAeadNonceSize,
                    frame.begin() + kAeadNonceSize + 24);
  seal_framed_into(key, 9, aad, frame);

  Bytes copy = frame;
  std::size_t len = 0;
  ASSERT_TRUE(open_framed_in_place(key, aad, copy, len));
  ASSERT_EQ(len, 24u);
  EXPECT_EQ(Bytes(copy.begin() + kAeadNonceSize,
                  copy.begin() + kAeadNonceSize + 24),
            plain);

  copy = frame;
  EXPECT_FALSE(open_framed_in_place(key, other_aad, copy, len));
  copy = frame;
  copy[kAeadNonceSize + 3] ^= 0x20;
  EXPECT_FALSE(open_framed_in_place(key, aad, copy, len));

  auto opened = open_framed(key, aad, frame);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plain);
}

class AeadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AeadSizes, RoundTripAllSizes) {
  AeadKey key{};
  key[0] = 0x42;
  Bytes msg = util::to_bytes(util::random_printable(GetParam(), GetParam()));
  Bytes framed = seal_with_counter(key, GetParam(), {}, msg);
  auto opened = open_framed(key, {}, framed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, AeadSizes,
                         ::testing::Values(0, 1, 15, 16, 17, 63, 64, 65, 255,
                                           1024, 65536));

// seal_with_counter lays the frame out and seals it through
// seal_framed_into, so the two give the same bytes at every size.
TEST(Aead, SealWithCounterMatchesFramedInto) {
  AeadKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 5 + 1);
  }
  const Bytes aad = util::to_bytes("aad");
  for (std::size_t n : {0u, 1u, 4000u, 65536u}) {
    const Bytes msg = util::to_bytes(util::random_printable(n + 3, n));
    Bytes frame(kAeadOverhead + n);
    std::copy(msg.begin(), msg.end(), frame.begin() + kAeadNonceSize);
    seal_framed_into(key, 77, aad, frame);
    EXPECT_EQ(seal_with_counter(key, 77, aad, msg), frame) << "n=" << n;
  }
}

// --- Differential: fast code against the reference implementations ---------
//
// The RFC vectors are all shorter than 256 bytes, so they never reach
// chacha20_xor's four-block path; these cases compare it, and the 64-bit
// Poly1305, with tests/crypto_reference.hpp byte for byte.

// Keys, nonces and Poly1305 keys are all byte arrays.
template <class Array>
Array random_array(FastRng& rng) {
  Array out;
  rng.fill(out);
  return out;
}

Bytes random_bytes(FastRng& rng, std::size_t n) {
  Bytes out(n);
  rng.fill(out);
  return out;
}

// XORs `n` random bytes, at byte offset `misalign` inside a larger buffer
// whose guard bytes must stay untouched, under a random key and nonce, and
// checks the result against the reference.
void expect_xor_matches(FastRng& rng, std::uint32_t counter, std::size_t n,
                        std::size_t misalign) {
  const auto key = random_array<ChaChaKey>(rng);
  const auto nonce = random_array<ChaChaNonce>(rng);
  const Bytes data = random_bytes(rng, n);
  Bytes expected = data;
  reference::ref_chacha20_xor(key, counter, nonce, expected);
  Bytes buffer(n + misalign + 16, 0xA5);
  std::copy(data.begin(), data.end(), buffer.begin() + misalign);
  chacha20_xor(key, counter, nonce,
               std::span<std::uint8_t>(buffer.data() + misalign, n));
  ASSERT_TRUE(std::equal(expected.begin(), expected.end(),
                         buffer.begin() + misalign))
      << "len=" << n << " misalign=" << misalign << " counter=" << counter;
  for (std::size_t i = 0; i < misalign; ++i) ASSERT_EQ(buffer[i], 0xA5);
  for (std::size_t i = misalign + n; i < buffer.size(); ++i) {
    ASSERT_EQ(buffer[i], 0xA5);
  }
}

TEST(ChaCha20Diff, EveryLengthUpTo1100) {
  FastRng rng(1);
  for (std::size_t n = 0; n <= 1100; ++n) {
    const auto counter = static_cast<std::uint32_t>(rng.next());
    expect_xor_matches(rng, counter, n, n % 16);
  }
}

TEST(ChaCha20Diff, RandomLengthsUpTo70KiB) {
  FastRng rng(2);
  for (int i = 0; i < 48; ++i) {
    const std::size_t n = rng.next_below(70 * 1024 + 1);
    const std::size_t misalign = rng.next_below(16);
    const auto counter = static_cast<std::uint32_t>(rng.next());
    expect_xor_matches(rng, counter, n, misalign);
  }
}

TEST(ChaCha20Diff, AllSixteenMisalignments) {
  FastRng rng(3);
  for (std::size_t misalign = 0; misalign < 16; ++misalign) {
    for (std::size_t n : {1u, 63u, 255u, 256u, 257u, 511u, 512u, 4103u}) {
      expect_xor_matches(rng, 1, n, misalign);
    }
  }
}

// Each four-block group gives its lanes counter..counter+3 with 32-bit
// wrap-around, exactly as the block loop's counter++ does.
TEST(ChaCha20Diff, CounterWrapsLikeTheBlockLoop) {
  FastRng rng(5);
  for (std::uint32_t counter = 0xFFFFFFFC; counter != 0; ++counter) {
    for (std::size_t n : {64u, 256u, 320u, 64u * 9 + 13, 1024u, 2048u}) {
      expect_xor_matches(rng, counter, n, 0);
    }
  }
}

PolyTag reference_tag(const PolyKey& key, std::span<const std::uint8_t> msg) {
  reference::RefPoly1305 mac(key);
  mac.update(msg);
  return mac.finish();
}

TEST(Poly1305Diff, RandomKeysAndLengths) {
  FastRng rng(6);
  for (std::size_t n = 0; n <= 300; ++n) {
    const auto key = random_array<PolyKey>(rng);
    const Bytes msg = random_bytes(rng, n);
    ASSERT_EQ(poly1305(key, msg), reference_tag(key, msg)) << "n=" << n;
  }
  for (int i = 0; i < 32; ++i) {
    const auto key = random_array<PolyKey>(rng);
    const Bytes msg = random_bytes(rng, rng.next_below(70 * 1024 + 1));
    ASSERT_EQ(poly1305(key, msg), reference_tag(key, msg))
        << "n=" << msg.size();
  }
}

// All-ones keys and messages keep h next to p and make the final pad
// addition carry through every limb.
TEST(Poly1305Diff, CarryHeavyInputs) {
  PolyKey key;
  key.fill(0xFF);
  for (std::size_t n : {0u, 1u, 15u, 16u, 17u, 64u, 1000u, 4096u}) {
    const Bytes ones(n, 0xFF);
    EXPECT_EQ(poly1305(key, ones), reference_tag(key, ones)) << "n=" << n;
    const Bytes zeros(n, 0x00);
    EXPECT_EQ(poly1305(key, zeros), reference_tag(key, zeros)) << "n=" << n;
  }
}

TEST(Poly1305Diff, SplitAtEveryOffset) {
  FastRng rng(7);
  for (std::size_t n : {0u, 1u, 16u, 31u, 48u, 49u, 100u, 1000u}) {
    const auto key = random_array<PolyKey>(rng);
    const Bytes msg = random_bytes(rng, n);
    const PolyTag expected = reference_tag(key, msg);
    for (std::size_t split = 0; split <= std::min<std::size_t>(48, n);
         ++split) {
      Poly1305 mac(key);
      mac.update(std::span<const std::uint8_t>(msg.data(), split));
      mac.update(std::span<const std::uint8_t>(msg.data() + split, n - split));
      ASSERT_EQ(mac.finish(), expected) << "n=" << n << " split=" << split;
    }
  }
}

TEST(Poly1305Diff, ByteAtATime) {
  FastRng rng(8);
  for (std::size_t n : {0u, 1u, 15u, 16u, 17u, 255u, 256u, 257u, 1000u}) {
    const auto key = random_array<PolyKey>(rng);
    const Bytes msg = random_bytes(rng, n);
    Poly1305 mac(key);
    for (std::size_t i = 0; i < n; ++i) {
      mac.update(std::span<const std::uint8_t>(msg.data() + i, 1));
    }
    ASSERT_EQ(mac.finish(), reference_tag(key, msg)) << "n=" << n;
  }
}

TEST(AeadDiff, SealAndOpenMatchReferenceComposition) {
  FastRng rng(9);
  std::vector<std::size_t> sizes = {0, 1, 255, 256, 257, 4000, 65536};
  for (int i = 0; i < 24; ++i) sizes.push_back(rng.next_below(70 * 1024 + 1));
  for (std::size_t n : sizes) {
    const auto key = random_array<AeadKey>(rng);
    const std::uint64_t counter = rng.next();
    const Bytes aad = random_bytes(rng, rng.next_below(40));
    const Bytes msg = random_bytes(rng, n);
    const Bytes expected =
        reference::ref_seal_with_counter(key, counter, aad, msg);

    // Out of place: the allocating sealer and opener.
    ASSERT_EQ(seal_with_counter(key, counter, aad, msg), expected)
        << "n=" << n;
    auto opened = open_framed(key, aad, expected);
    ASSERT_TRUE(opened.has_value()) << "n=" << n;
    ASSERT_EQ(*opened, msg) << "n=" << n;

    // In place: the channel fast path's sealer and opener.
    Bytes frame(kAeadOverhead + n);
    std::copy(msg.begin(), msg.end(), frame.begin() + kAeadNonceSize);
    seal_framed_into(key, counter, aad, frame);
    ASSERT_EQ(frame, expected) << "n=" << n;
    std::size_t len = 0;
    ASSERT_TRUE(open_framed_in_place(key, aad, frame, len)) << "n=" << n;
    ASSERT_EQ(len, n);
    ASSERT_TRUE(std::equal(msg.begin(), msg.end(),
                           frame.begin() + kAeadNonceSize));
  }
}

// On a frame long enough to take the four-block path, flipping the low or
// the high bit of a nonce, ciphertext (either side of the first 256-byte
// group) or tag byte fails authentication.
TEST(AeadDiff, TamperRejectedOnFourBlockFrame) {
  FastRng rng(10);
  const auto key = random_array<AeadKey>(rng);
  const Bytes aad = util::to_bytes("dir");
  const Bytes msg = random_bytes(rng, 1000);
  const Bytes frame = seal_with_counter(key, 3, aad, msg);
  ASSERT_GE(frame.size() - kAeadOverhead, 256u);
  for (std::size_t pos :
       {std::size_t{0}, kAeadNonceSize - 1, kAeadNonceSize,
        kAeadNonceSize + 255, kAeadNonceSize + 256, frame.size() - 17,
        frame.size() - 16, frame.size() - 1}) {
    for (int bit = 0; bit < 8; bit += 7) {
      Bytes bad = frame;
      bad[pos] ^= static_cast<std::uint8_t>(1u << bit);
      std::size_t len = 0;
      EXPECT_FALSE(open_framed_in_place(key, aad, bad, len)) << "pos=" << pos;
      EXPECT_FALSE(open_framed(key, aad, bad).has_value()) << "pos=" << pos;
    }
  }
}

// --- Deterministic (SIV) ---------------------------------------------------------

TEST(Deterministic, SameInputSameOutput) {
  Bytes master(32, 0x11);
  DetKey key = derive_det_key(master);
  Bytes a = det_encrypt(key, util::to_bytes("alice"));
  Bytes b = det_encrypt(key, util::to_bytes("alice"));
  Bytes c = det_encrypt(key, util::to_bytes("alicf"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Deterministic, RoundTrip) {
  Bytes master(32, 0x22);
  DetKey key = derive_det_key(master);
  Bytes sealed = det_encrypt(key, util::to_bytes("key-material"));
  auto opened = det_decrypt(key, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(util::to_string(*opened), "key-material");
}

TEST(Deterministic, TamperRejected) {
  Bytes master(32, 0x33);
  DetKey key = derive_det_key(master);
  Bytes sealed = det_encrypt(key, util::to_bytes("key-material"));
  sealed.back() ^= 1;
  EXPECT_FALSE(det_decrypt(key, sealed).has_value());
}

TEST(Deterministic, WrongKeyRejected) {
  Bytes master_a(32, 0x44);
  Bytes master_b(32, 0x45);
  Bytes sealed = det_encrypt(derive_det_key(master_a), util::to_bytes("x"));
  EXPECT_FALSE(det_decrypt(derive_det_key(master_b), sealed).has_value());
}

// --- RNG ---------------------------------------------------------------------------

TEST(Rng, FastRngDeterministicPerSeed) {
  FastRng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.next();
    EXPECT_EQ(va, b.next());
    (void)c.next();
  }
  FastRng a2(123), c2(124);
  EXPECT_NE(a2.next(), c2.next());
}

TEST(Rng, NextBelowBounds) {
  FastRng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, FillCoversBuffer) {
  FastRng rng(9);
  Bytes buf(100, 0);
  rng.fill(buf);
  int nonzero = 0;
  for (auto b : buf) nonzero += (b != 0);
  EXPECT_GT(nonzero, 50);  // overwhelmingly likely
}

TEST(Rng, SecureRandomDistinctDraws) {
  Bytes a(32, 0), b(32, 0);
  secure_random(a);
  secure_random(b);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace ea::crypto

// --- X25519 (RFC 7748) -----------------------------------------------------------

namespace ea::crypto {
namespace {

X25519Key key_from_hex(const char* hex) {
  util::Bytes b = util::from_hex(hex);
  X25519Key k{};
  std::copy(b.begin(), b.end(), k.begin());
  return k;
}

TEST(X25519, Rfc7748Vector1) {
  auto scalar = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point = key_from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  EXPECT_EQ(util::to_hex(x25519(scalar, point)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748Vector2) {
  auto scalar = key_from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point = key_from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  EXPECT_EQ(util::to_hex(x25519(scalar, point)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, Rfc7748AliceBobSharedSecret) {
  auto alice_priv = key_from_hex(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto bob_priv = key_from_hex(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  auto alice_pub = x25519_base(alice_priv);
  auto bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(util::to_hex(alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(util::to_hex(bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
  auto k1 = x25519(alice_priv, bob_pub);
  auto k2 = x25519(bob_priv, alice_pub);
  EXPECT_EQ(k1, k2);
  EXPECT_EQ(util::to_hex(k1),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

// RFC 7748 §5.2: k = u = 9, then repeatedly (k, u) = (X25519(k, u), k).
X25519Key iterate_from_nine(int iterations) {
  X25519Key k{};
  k[0] = 9;
  X25519Key u = k;
  for (int i = 0; i < iterations; ++i) {
    X25519Key next = x25519(k, u);
    u = k;
    k = next;
  }
  return k;
}

TEST(X25519, Rfc7748IteratedOnce) {
  EXPECT_EQ(util::to_hex(iterate_from_nine(1)),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079");
}

TEST(X25519, Rfc7748IteratedThousand) {
  EXPECT_EQ(util::to_hex(iterate_from_nine(1000)),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51");
}

TEST(X25519, NonCanonicalPointProcessedAsReduced) {
  // p + 9 = 2^255 - 10 encodes the same field element as 9 (RFC 7748 §5:
  // non-canonical values are accepted and reduced).
  auto scalar = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto p_plus_nine = key_from_hex(
      "f6ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
  EXPECT_EQ(x25519(scalar, p_plus_nine), x25519_base(scalar));
}

TEST(X25519, HighBitOfPointIgnored) {
  // Vector 1's u has bit 255 clear: setting it leaves the RFC output.
  auto scalar1 = key_from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto point1 = key_from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  point1[31] |= 0x80;
  EXPECT_EQ(util::to_hex(x25519(scalar1, point1)),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
  // Vector 2's u has it set: clearing it leaves the RFC output.
  auto scalar2 = key_from_hex(
      "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
  auto point2 = key_from_hex(
      "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
  point2[31] &= 0x7f;
  EXPECT_EQ(util::to_hex(x25519(scalar2, point2)),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957");
}

TEST(X25519, KeygenProducesWorkingPairs) {
  for (int i = 0; i < 5; ++i) {
    X25519Key a = x25519_keygen();
    X25519Key b = x25519_keygen();
    EXPECT_NE(a, b);
    EXPECT_EQ(x25519(a, x25519_base(b)), x25519(b, x25519_base(a)));
  }
}

}  // namespace
}  // namespace ea::crypto

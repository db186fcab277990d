// Crypto suite against published test vectors: FIPS 180-4 (SHA-256),
// RFC 4231 (HMAC), RFC 5869 (HKDF), RFC 8439 (ChaCha20 / Poly1305 / AEAD),
// RFC 7748 (X25519). The SIMD kernels behind crypto/dispatch.h are
// differential-tested against the scalar reference kernels.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "crypto/aead.h"
#include "crypto/chacha20.h"
#include "crypto/dispatch.h"
#include "crypto/hmac.h"
#include "crypto/poly1305.h"
#include "crypto/sha256.h"
#include "crypto/x25519.h"
#include "sim/rng.h"
#include "util/encoding.h"

namespace ptperf::crypto {
namespace {

using util::Bytes;
using util::hex_decode;
using util::hex_encode;
using util::to_bytes;

std::string digest_hex(util::BytesView data) {
  auto d = Sha256::digest(data);
  return hex_encode(util::BytesView(d.data(), d.size()));
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(digest_hex({}),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(digest_hex(to_bytes("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(
      digest_hex(to_bytes(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.finalize();
  EXPECT_EQ(hex_encode(util::BytesView(d.data(), d.size())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes data(300);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i);
  for (std::size_t split = 0; split <= data.size(); split += 37) {
    Sha256 h;
    h.update(util::BytesView(data.data(), split));
    h.update(util::BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finalize(), Sha256::digest(data)) << split;
  }
}

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes mac = hmac_sha256(key, to_bytes("Hi There"));
  EXPECT_EQ(hex_encode(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  Bytes mac = hmac_sha256(to_bytes("Jefe"),
                          to_bytes("what do ya want for nothing?"));
  EXPECT_EQ(hex_encode(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231LongKey) {
  // Case 6: 131-byte key (hashed down), "Test Using Larger Than Block-Size
  // Key - Hash Key First".
  Bytes key(131, 0xaa);
  Bytes mac = hmac_sha256(
      key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(hex_encode(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = *hex_decode("000102030405060708090a0b0c");
  Bytes info = *hex_decode("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = hkdf(salt, ikm, info, 42);
  EXPECT_EQ(hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandLengths) {
  Bytes prk = hkdf_extract({}, to_bytes("input"));
  EXPECT_EQ(hkdf_expand(prk, {}, 1).size(), 1u);
  EXPECT_EQ(hkdf_expand(prk, {}, 32).size(), 32u);
  EXPECT_EQ(hkdf_expand(prk, {}, 100).size(), 100u);
  EXPECT_THROW(hkdf_expand(prk, {}, 255 * 32 + 1), std::invalid_argument);
  // Prefix property: longer output extends shorter one.
  Bytes a = hkdf_expand(prk, to_bytes("x"), 16);
  Bytes b = hkdf_expand(prk, to_bytes("x"), 64);
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
}

TEST(ChaCha20, Rfc8439KeystreamBlock) {
  // RFC 8439 §2.3.2 test vector.
  Bytes key = *hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = *hex_decode("000000090000004a00000000");
  auto block = ChaCha20::block(key, nonce, 1);
  Bytes expect = *hex_decode(
      "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
      "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
  EXPECT_EQ(Bytes(block.begin(), block.end()), expect);
}

TEST(ChaCha20, Rfc8439Encryption) {
  // RFC 8439 §2.4.2.
  Bytes key = *hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes nonce = *hex_decode("000000000000004a00000000");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  ChaCha20 cipher(key, nonce, 1);
  Bytes ct = cipher.process_copy(to_bytes(plaintext));
  EXPECT_EQ(hex_encode(ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
  // Decrypt restores the plaintext.
  ChaCha20 decipher(key, nonce, 1);
  EXPECT_EQ(util::to_string(decipher.process_copy(ct)), plaintext);
}

TEST(ChaCha20, StreamContinuity) {
  sim::Rng rng(1);
  Bytes key = rng.bytes(32), nonce = rng.bytes(12);
  Bytes data = rng.bytes(300);
  // One-shot vs split processing must agree (cross-block boundaries).
  ChaCha20 a(key, nonce);
  Bytes whole = a.process_copy(data);
  ChaCha20 b(key, nonce);
  Bytes part1(data.begin(), data.begin() + 100);
  Bytes part2(data.begin() + 100, data.end());
  b.process(part1.data(), part1.size());
  b.process(part2.data(), part2.size());
  part1.insert(part1.end(), part2.begin(), part2.end());
  EXPECT_EQ(part1, whole);
}

TEST(Poly1305, Rfc8439Vector) {
  Bytes key = *hex_decode(
      "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
  auto tag =
      Poly1305::mac(key, to_bytes("Cryptographic Forum Research Group"));
  EXPECT_EQ(hex_encode(util::BytesView(tag.data(), tag.size())),
            "a8061dc1305136c6c22b8baf0c0127a9");
}

TEST(Poly1305, IncrementalMatchesOneShot) {
  sim::Rng rng(2);
  Bytes key = rng.bytes(32);
  Bytes msg = rng.bytes(123);
  Poly1305 inc(key);
  inc.update(util::BytesView(msg.data(), 50));
  inc.update(util::BytesView(msg.data() + 50, msg.size() - 50));
  EXPECT_EQ(inc.finalize(), Poly1305::mac(key, msg));
}

TEST(Aead, Rfc8439Vector) {
  Bytes key = *hex_decode(
      "808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f");
  Bytes nonce = *hex_decode("070000004041424344454647");
  Bytes aad = *hex_decode("50515253c0c1c2c3c4c5c6c7");
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  ChaCha20Poly1305 aead(key);
  Bytes sealed = aead.seal(nonce, to_bytes(plaintext), aad);
  ASSERT_EQ(sealed.size(), plaintext.size() + 16);
  // Tag from the RFC.
  EXPECT_EQ(hex_encode(util::BytesView(sealed.data() + plaintext.size(), 16)),
            "1ae10b594f09e26a7e902ecbd0600691");
  auto opened = aead.open(nonce, sealed, aad);
  ASSERT_TRUE(opened);
  EXPECT_EQ(util::to_string(*opened), plaintext);
}

TEST(Aead, RejectsTampering) {
  sim::Rng rng(3);
  ChaCha20Poly1305 aead(rng.bytes(32));
  Bytes nonce = counter_nonce(7);
  Bytes sealed = aead.seal(nonce, to_bytes("payload"), to_bytes("aad"));

  Bytes flipped = sealed;
  flipped[0] ^= 1;
  EXPECT_FALSE(aead.open(nonce, flipped, to_bytes("aad")));
  EXPECT_FALSE(aead.open(counter_nonce(8), sealed, to_bytes("aad")));
  EXPECT_FALSE(aead.open(nonce, sealed, to_bytes("other-aad")));
  EXPECT_FALSE(aead.open(nonce, Bytes{1, 2, 3}, {}));  // shorter than a tag
  EXPECT_TRUE(aead.open(nonce, sealed, to_bytes("aad")));
}

TEST(X25519, Rfc7748ScalarMult) {
  X25519Key scalar, point;
  auto s = *hex_decode(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  auto u = *hex_decode(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  std::copy(s.begin(), s.end(), scalar.begin());
  std::copy(u.begin(), u.end(), point.begin());
  X25519Key out = x25519(scalar, point);
  EXPECT_EQ(hex_encode(util::BytesView(out.data(), out.size())),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552");
}

TEST(X25519, Rfc7748DiffieHellman) {
  // RFC 7748 §6.1: Alice/Bob key agreement.
  X25519Key alice_priv, bob_priv;
  auto a = *hex_decode(
      "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
  auto b = *hex_decode(
      "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
  std::copy(a.begin(), a.end(), alice_priv.begin());
  std::copy(b.begin(), b.end(), bob_priv.begin());

  X25519Key alice_pub = x25519_base(alice_priv);
  X25519Key bob_pub = x25519_base(bob_priv);
  EXPECT_EQ(hex_encode(util::BytesView(alice_pub.data(), 32)),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
  EXPECT_EQ(hex_encode(util::BytesView(bob_pub.data(), 32)),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");

  X25519Key shared_a = x25519(alice_priv, bob_pub);
  X25519Key shared_b = x25519(bob_priv, alice_pub);
  EXPECT_EQ(shared_a, shared_b);
  EXPECT_EQ(hex_encode(util::BytesView(shared_a.data(), 32)),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
}

TEST(X25519, ClampProperties) {
  sim::Rng rng(4);
  X25519Key raw;
  rng.fill_bytes(raw.data(), raw.size());
  X25519Key clamped = x25519_clamp(raw);
  EXPECT_EQ(clamped[0] & 7, 0);
  EXPECT_EQ(clamped[31] & 0x80, 0);
  EXPECT_EQ(clamped[31] & 0x40, 0x40);
}

// ---------------------------------------------------------------------------
// CPU feature dispatch: every SIMD kernel against the scalar reference.

TEST(CryptoDispatch, SelectionRule) {
  Kernels scalar = detail::select_kernels("scalar");
  EXPECT_EQ(scalar.sha256_blocks, detail::sha256_blocks_scalar);
  EXPECT_EQ(scalar.chacha20_xor, detail::chacha20_xor_scalar);
  EXPECT_EQ(scalar.names(), "scalar");

  for (const char* mode : {static_cast<const char*>(nullptr), "auto"}) {
    Kernels k = detail::select_kernels(mode);
    EXPECT_EQ(k.sha256_blocks == detail::sha256_blocks_sha_ni,
              detail::cpu_has_sha_ni());
    EXPECT_EQ(k.chacha20_xor == detail::chacha20_xor_avx2,
              detail::cpu_has_avx2());
    if (detail::cpu_has_sha_ni() && detail::cpu_has_avx2()) {
      EXPECT_EQ(k.names(), "sha-ni,avx2");
    }
  }
  for (const char* bad : {"", "bogus", "AVX2", "Scalar", "scalar "})
    EXPECT_THROW(detail::select_kernels(bad), std::invalid_argument) << bad;

  // The process-wide choice is one of the two legal outcomes.
  std::string active = kernels().names();
  EXPECT_TRUE(active == "scalar" ||
              active == detail::select_kernels("auto").names())
      << active;
}

/// One-shot SHA-256 computed directly on a block kernel: FIPS 180-4
/// padding, then the kernel over every block at once.
Bytes sha256_with(Sha256BlocksFn blocks_fn, util::BytesView msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i)
    padded.push_back(static_cast<std::uint8_t>(bits >> (i * 8)));
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  blocks_fn(state, padded.data(), padded.size() / 64);
  Bytes out;
  for (std::uint32_t w : state)
    for (int i = 3; i >= 0; --i)
      out.push_back(static_cast<std::uint8_t>(w >> (i * 8)));
  return out;
}

void skip_without_sha_ni() {
  if (!detail::cpu_has_sha_ni()) GTEST_SKIP() << "CPU lacks SHA-NI";
}

void skip_without_avx2() {
  if (!detail::cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
}

void expect_fips180_vectors(Sha256BlocksFn fn) {
  struct Vector {
    std::string msg;
    const char* hex;
  };
  const Vector vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const Vector& v : vectors)
    EXPECT_EQ(hex_encode(sha256_with(fn, to_bytes(v.msg))), v.hex)
        << v.msg.size() << "-byte message";
}

TEST(Sha256Kernels, Fips180VectorsOnScalarKernel) {
  expect_fips180_vectors(detail::sha256_blocks_scalar);
}

TEST(Sha256Kernels, Fips180VectorsOnShaNiKernel) {
  skip_without_sha_ni();
  expect_fips180_vectors(detail::sha256_blocks_sha_ni);
}

TEST(Sha256Kernels, ShaNiMatchesScalarOnSeededInputs) {
  skip_without_sha_ni();
  sim::Rng rng(0x5a5a);
  for (std::size_t len = 0; len <= 4096; ++len) {
    Bytes msg = rng.bytes(len);
    Bytes want = sha256_with(detail::sha256_blocks_scalar, msg);
    ASSERT_EQ(sha256_with(detail::sha256_blocks_sha_ni, msg), want) << len;
    // The dispatched incremental path, fed in two uneven pieces.
    std::size_t split = rng.next_below(len + 1);
    Sha256 h;
    h.update(util::BytesView(msg.data(), split));
    h.update(util::BytesView(msg.data() + split, len - split));
    auto got = h.finalize();
    ASSERT_EQ(Bytes(got.begin(), got.end()), want) << len << "/" << split;
  }
}

TEST(Sha256Kernels, ShaNiContinuesAnArbitraryChainingState) {
  skip_without_sha_ni();
  sim::Rng rng(0xc4a1);
  for (std::size_t blocks = 1; blocks <= 9; ++blocks) {
    Bytes data = rng.bytes(blocks * 64);
    std::uint32_t a[8], b[8];
    for (std::uint32_t& w : a) w = static_cast<std::uint32_t>(rng.next_u64());
    std::memcpy(b, a, sizeof a);
    detail::sha256_blocks_scalar(a, data.data(), blocks);
    detail::sha256_blocks_sha_ni(b, data.data(), blocks);
    EXPECT_EQ(std::memcmp(a, b, sizeof a), 0) << blocks;
  }
}

/// The ChaCha20 input state for (key, nonce, counter), as ChaCha20 lays it
/// out.
std::array<std::uint32_t, 16> chacha_state(util::BytesView key,
                                           util::BytesView nonce,
                                           std::uint32_t counter) {
  std::array<std::uint32_t, 16> s = {0x61707865, 0x3320646e, 0x79622d32,
                                     0x6b206574};
  auto le32 = [](const std::uint8_t* p) {
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
  };
  for (int i = 0; i < 8; ++i) s[4 + i] = le32(key.data() + i * 4);
  s[12] = counter;
  for (int i = 0; i < 3; ++i) s[13 + i] = le32(nonce.data() + i * 4);
  return s;
}

void expect_rfc8439_vectors(ChaCha20XorFn fn) {
  // RFC 8439 §2.3.2 keystream block (counter 1) and §2.4.2 ciphertext
  // (counter 1, 114 bytes = one whole block plus a 50-byte tail).
  Bytes key = *hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto s = chacha_state(key, *hex_decode("000000090000004a00000000"), 1);
  Bytes block(64, 0);
  fn(s.data(), block.data(), 1, nullptr);
  EXPECT_EQ(hex_encode(block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");

  s = chacha_state(key, *hex_decode("000000000000004a00000000"), 1);
  Bytes text = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  std::uint8_t tail[64];
  fn(s.data(), text.data(), 1, tail);
  for (std::size_t i = 64; i < text.size(); ++i) text[i] ^= tail[i - 64];
  EXPECT_EQ(hex_encode(text),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
            "f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8"
            "07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736"
            "5af90bbf74a35be6b40b8eedf2785e42874d");
}

TEST(ChaCha20Kernels, Rfc8439VectorsOnScalarKernel) {
  expect_rfc8439_vectors(detail::chacha20_xor_scalar);
}

TEST(ChaCha20Kernels, Rfc8439VectorsOnAvx2Kernel) {
  skip_without_avx2();
  expect_rfc8439_vectors(detail::chacha20_xor_avx2);
}

TEST(ChaCha20Kernels, Avx2MatchesScalarOnEveryBatchShape) {
  skip_without_avx2();
  sim::Rng rng(0xc8a);
  // Counters straddling the 2^32 wrap: lanes must wrap exactly as the
  // scalar counter does, and must not carry into the nonce.
  for (std::uint32_t counter : {0u, 1u, 0x7FFFFFFFu, 0xFFFFFFF8u, 0xFFFFFFF9u,
                                0xFFFFFFFCu, 0xFFFFFFFFu}) {
    for (std::size_t blocks = 0; blocks <= 8; ++blocks) {
      for (bool with_tail : {false, true}) {
        std::size_t lanes = blocks + (with_tail ? 1 : 0);
        if (lanes == 0 || lanes > 8) continue;
        auto s = chacha_state(rng.bytes(32), rng.bytes(12), counter);
        auto before = s;
        Bytes data = rng.bytes(blocks * 64);
        Bytes want = data, got = data;
        std::uint8_t want_tail[64] = {}, got_tail[64] = {};
        detail::chacha20_xor_scalar(s.data(), want.data(), blocks,
                                    with_tail ? want_tail : nullptr);
        detail::chacha20_xor_avx2(s.data(), got.data(), blocks,
                                  with_tail ? got_tail : nullptr);
        EXPECT_EQ(got, want) << counter << "/" << blocks << "/" << with_tail;
        EXPECT_EQ(std::memcmp(got_tail, want_tail, 64), 0)
            << counter << "/" << blocks << "/" << with_tail;
        EXPECT_EQ(s, before);
      }
    }
  }
}

/// The reference keystream: ChaCha20::block for consecutive counters
/// (the one-block scalar path, independent of the dispatched kernels).
Bytes reference_keystream(util::BytesView key, util::BytesView nonce,
                          std::uint32_t counter, std::size_t len) {
  Bytes ks;
  while (ks.size() < len) {
    auto block = ChaCha20::block(key, nonce, counter++);
    ks.insert(ks.end(), block.begin(), block.end());
  }
  ks.resize(len);
  return ks;
}

TEST(ChaCha20Kernels, ContinuingStreamMatchesReferenceFromEveryOffset) {
  // A continuing stream positioned at byte offset 0..63 of its current
  // block, then fed one seeded input of length 0..4096: the first call
  // spends the buffered keystream, the next ones go through the batch
  // kernel and the tail buffer.
  sim::Rng rng(0x0ff5e7);
  for (std::uint32_t counter : {0u, 0xFFFFFFF8u}) {
    for (std::size_t offset = 0; offset < 64; ++offset) {
      for (int trial = 0; trial < 12; ++trial) {
        std::size_t len = trial == 0   ? 4096
                          : trial == 1 ? 509
                                       : rng.next_below(4097);
        Bytes key = rng.bytes(32), nonce = rng.bytes(12);
        Bytes data = rng.bytes(offset + len + 700);
        Bytes want = data;
        Bytes ks = reference_keystream(key, nonce, counter, want.size());
        for (std::size_t i = 0; i < want.size(); ++i) want[i] ^= ks[i];

        ChaCha20 cipher(key, nonce, counter);
        Bytes got = data;
        cipher.process(got.data(), offset);
        cipher.process(got.data() + offset, len);
        // Keep going in cell-sized and odd pieces: the stream position
        // after `len` must be exact too.
        std::size_t pos = offset + len;
        for (std::size_t piece : {509u, 3u, 188u}) {
          cipher.process(got.data() + pos, piece);
          pos += piece;
        }
        ASSERT_EQ(got, want) << "counter=" << counter << " offset=" << offset
                             << " len=" << len;
      }
    }
  }
}

}  // namespace
}  // namespace ptperf::crypto

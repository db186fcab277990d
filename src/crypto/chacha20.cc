#include "crypto/chacha20.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#include "crypto/dispatch.h"

namespace ptperf::crypto {

// Every circuit hop and PT session holds ChaCha20 objects, so a buffer big
// enough for a whole batch would cost memory per hop; batches of keystream
// go straight into the caller's buffer instead.
static_assert(sizeof(ChaCha20) ==
                  16 * sizeof(std::uint32_t) + 64 + sizeof(std::size_t),
              "ChaCha20 must stay 136 bytes (LP64)");

namespace {

inline std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

inline void quarter_round(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c,
                          std::uint32_t& d) {
  a += b; d ^= a; d = std::rotl(d, 16);
  c += d; b ^= c; b = std::rotl(b, 12);
  a += b; d ^= a; d = std::rotl(d, 8);
  c += d; b ^= c; b = std::rotl(b, 7);
}

void chacha_block(const std::uint32_t* in, std::uint8_t* out) {
  std::array<std::uint32_t, 16> x;
  std::copy(in, in + 16, x.begin());
  for (int i = 0; i < 10; ++i) {
    quarter_round(x[0], x[4], x[8], x[12]);
    quarter_round(x[1], x[5], x[9], x[13]);
    quarter_round(x[2], x[6], x[10], x[14]);
    quarter_round(x[3], x[7], x[11], x[15]);
    quarter_round(x[0], x[5], x[10], x[15]);
    quarter_round(x[1], x[6], x[11], x[12]);
    quarter_round(x[2], x[7], x[8], x[13]);
    quarter_round(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    std::uint32_t v = x[i] + in[i];
    out[i * 4] = static_cast<std::uint8_t>(v);
    out[i * 4 + 1] = static_cast<std::uint8_t>(v >> 8);
    out[i * 4 + 2] = static_cast<std::uint8_t>(v >> 16);
    out[i * 4 + 3] = static_cast<std::uint8_t>(v >> 24);
  }
}

/// XORs `len` bytes of keystream into data, eight bytes per operation.
void xor_keystream(std::uint8_t* data, const std::uint8_t* ks,
                   std::size_t len) {
  std::size_t w = 0;
  for (; w + 8 <= len; w += 8) {
    std::uint64_t d, k;
    std::memcpy(&d, data + w, 8);
    std::memcpy(&k, ks + w, 8);
    d ^= k;
    std::memcpy(data + w, &d, 8);
  }
  for (; w < len; ++w) data[w] ^= ks[w];
}

}  // namespace

namespace detail {

void chacha20_xor_scalar(const std::uint32_t* state, std::uint8_t* data,
                         std::size_t blocks, std::uint8_t* tail) {
  std::uint32_t in[16];
  std::copy(state, state + 16, in);
  std::uint8_t ks[64];
  for (std::size_t b = 0; b < blocks; ++b, ++in[12]) {
    chacha_block(in, ks);
    xor_keystream(data + b * 64, ks, 64);
  }
  if (tail) chacha_block(in, tail);
}

}  // namespace detail

ChaCha20::ChaCha20(util::BytesView key, util::BytesView nonce,
                   std::uint32_t initial_counter) {
  if (key.size() != kKeySize) throw std::invalid_argument("chacha20: key size");
  if (nonce.size() != kNonceSize)
    throw std::invalid_argument("chacha20: nonce size");
  state_ = {0x61707865, 0x3320646e, 0x79622d32, 0x6b206574};
  for (int i = 0; i < 8; ++i) state_[4 + i] = load_le32(key.data() + i * 4);
  state_[12] = initial_counter;
  for (int i = 0; i < 3; ++i) state_[13 + i] = load_le32(nonce.data() + i * 4);
}

void ChaCha20::refill() {
  chacha_block(state_.data(), keystream_.data());
  state_[12] += 1;
  keystream_pos_ = 0;
}

void ChaCha20::process(std::uint8_t* data, std::size_t len) {
  // The onion data path XORs every relay cell three times per direction,
  // so this bounds circuit throughput. Spend the buffered keystream first,
  // then XOR whole blocks straight into `data` in batches of up to eight
  // (the dispatched kernel computes a batch at once); a partial tail that
  // fits the last batch's spare lane comes back as the new buffered block.
  std::size_t buffered = std::min(len, 64 - keystream_pos_);
  xor_keystream(data, keystream_.data() + keystream_pos_, buffered);
  keystream_pos_ += buffered;
  data += buffered;
  len -= buffered;

  const ChaCha20XorFn xor_blocks = kernels().chacha20_xor;
  while (len >= 64) {
    std::size_t blocks = std::min<std::size_t>(len / 64, 8);
    std::size_t rest = len - blocks * 64;
    bool tail = blocks < 8 && rest > 0;
    xor_blocks(state_.data(), data, blocks,
               tail ? keystream_.data() : nullptr);
    state_[12] += static_cast<std::uint32_t>(blocks + (tail ? 1 : 0));
    data += blocks * 64;
    len = rest;
    if (tail) keystream_pos_ = 0;
  }
  if (len == 0) return;
  if (keystream_pos_ == 64) refill();
  xor_keystream(data, keystream_.data() + keystream_pos_, len);
  keystream_pos_ += len;
}

std::array<std::uint8_t, 64> ChaCha20::block(util::BytesView key,
                                             util::BytesView nonce,
                                             std::uint32_t counter) {
  ChaCha20 c(key, nonce, counter);
  c.refill();
  return c.keystream_;
}

}  // namespace ptperf::crypto

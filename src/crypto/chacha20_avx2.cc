// Eight-lane ChaCha20 on AVX2: register w holds state word w of eight
// consecutive blocks (lane i runs at block counter state[12] + i), so one
// pass of the double rounds yields 512 bytes of keystream. The lanes are
// transposed back into block order in registers and XORed straight into
// the caller's buffer. Compiled for the avx2 target at function level only:
// dispatch.cc calls it after checking the CPU.
#include "crypto/dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace ptperf::crypto::detail {
namespace {

__attribute__((target("avx2"), always_inline)) inline
__m256i rotl16(__m256i x) {
  const __m256i r = _mm256_set_epi8(
      13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2,  //
      13, 12, 15, 14, 9, 8, 11, 10, 5, 4, 7, 6, 1, 0, 3, 2);
  return _mm256_shuffle_epi8(x, r);
}

__attribute__((target("avx2"), always_inline)) inline
__m256i rotl8(__m256i x) {
  const __m256i r = _mm256_set_epi8(
      14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3,  //
      14, 13, 12, 15, 10, 9, 8, 11, 6, 5, 4, 7, 2, 1, 0, 3);
  return _mm256_shuffle_epi8(x, r);
}

template <int N>
__attribute__((target("avx2"), always_inline)) inline
__m256i rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi32(x, N),
                         _mm256_srli_epi32(x, 32 - N));
}

__attribute__((target("avx2"), always_inline)) inline
void quarter_round(__m256i& a, __m256i& b, __m256i& c, __m256i& d) {
  a = _mm256_add_epi32(a, b); d = rotl16(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = rotl<12>(_mm256_xor_si256(b, c));
  a = _mm256_add_epi32(a, b); d = rotl8(_mm256_xor_si256(d, a));
  c = _mm256_add_epi32(c, d); b = rotl<7>(_mm256_xor_si256(b, c));
}

/// 8x8 transpose of 32-bit words: on entry r[w] holds word w of lanes
/// 0..7; on exit r[i] holds words 0..7 of lane i.
__attribute__((target("avx2"), always_inline)) inline
void transpose8(__m256i* r) {
  __m256i t0 = _mm256_unpacklo_epi32(r[0], r[1]);
  __m256i t1 = _mm256_unpackhi_epi32(r[0], r[1]);
  __m256i t2 = _mm256_unpacklo_epi32(r[2], r[3]);
  __m256i t3 = _mm256_unpackhi_epi32(r[2], r[3]);
  __m256i t4 = _mm256_unpacklo_epi32(r[4], r[5]);
  __m256i t5 = _mm256_unpackhi_epi32(r[4], r[5]);
  __m256i t6 = _mm256_unpacklo_epi32(r[6], r[7]);
  __m256i t7 = _mm256_unpackhi_epi32(r[6], r[7]);
  // u0: words 0-3 of lanes 0 | 4; u1: lanes 1 | 5; u2: 2 | 6; u3: 3 | 7.
  __m256i u0 = _mm256_unpacklo_epi64(t0, t2);
  __m256i u1 = _mm256_unpackhi_epi64(t0, t2);
  __m256i u2 = _mm256_unpacklo_epi64(t1, t3);
  __m256i u3 = _mm256_unpackhi_epi64(t1, t3);
  // u4..u7: the same for words 4-7.
  __m256i u4 = _mm256_unpacklo_epi64(t4, t6);
  __m256i u5 = _mm256_unpackhi_epi64(t4, t6);
  __m256i u6 = _mm256_unpacklo_epi64(t5, t7);
  __m256i u7 = _mm256_unpackhi_epi64(t5, t7);
  r[0] = _mm256_permute2x128_si256(u0, u4, 0x20);
  r[1] = _mm256_permute2x128_si256(u1, u5, 0x20);
  r[2] = _mm256_permute2x128_si256(u2, u6, 0x20);
  r[3] = _mm256_permute2x128_si256(u3, u7, 0x20);
  r[4] = _mm256_permute2x128_si256(u0, u4, 0x31);
  r[5] = _mm256_permute2x128_si256(u1, u5, 0x31);
  r[6] = _mm256_permute2x128_si256(u2, u6, 0x31);
  r[7] = _mm256_permute2x128_si256(u3, u7, 0x31);
}

}  // namespace

__attribute__((target("avx2"))) void chacha20_xor_avx2(
    const std::uint32_t* state, std::uint8_t* data, std::size_t blocks,
    std::uint8_t* tail) {
  __m256i x[16];
  for (int w = 0; w < 16; ++w)
    x[w] = _mm256_set1_epi32(static_cast<int>(state[w]));
  // Per-lane block counters; the 32-bit add wraps exactly as the scalar
  // counter does.
  const __m256i counters =
      _mm256_add_epi32(x[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  x[12] = counters;

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
  for (int w = 0; w < 16; ++w) {
    __m256i in = w == 12 ? counters
                         : _mm256_set1_epi32(static_cast<int>(state[w]));
    x[w] = _mm256_add_epi32(x[w], in);
  }

  // x[0..7] -> first 32 bytes of blocks 0..7; x[8..15] -> last 32 bytes.
  transpose8(x);
  transpose8(x + 8);

#pragma GCC unroll 8
  for (std::size_t b = 0; b < 8; ++b) {
    if (b < blocks) {
      auto* p = reinterpret_cast<__m256i*>(data + b * 64);
      _mm256_storeu_si256(p, _mm256_xor_si256(_mm256_loadu_si256(p), x[b]));
      _mm256_storeu_si256(
          p + 1, _mm256_xor_si256(_mm256_loadu_si256(p + 1), x[8 + b]));
    } else if (b == blocks && tail) {
      auto* p = reinterpret_cast<__m256i*>(tail);
      _mm256_storeu_si256(p, x[b]);
      _mm256_storeu_si256(p + 1, x[8 + b]);
    }
  }
}

}  // namespace ptperf::crypto::detail

#else

namespace ptperf::crypto::detail {

// No AVX2 on this architecture; cpu_has_avx2() is false, so dispatch never
// selects this.
void chacha20_xor_avx2(const std::uint32_t* state, std::uint8_t* data,
                       std::size_t blocks, std::uint8_t* tail) {
  chacha20_xor_scalar(state, data, blocks, tail);
}

}  // namespace ptperf::crypto::detail

#endif

// SHA-256 compression on the x86 SHA extensions (SHA-NI). Each
// _mm_sha256rnds2_epu32 performs two rounds on the state split as ABEF/CDGH;
// msg1/msg2 extend the message schedule four words at a time. Compiled for
// the sha and sse4.1 targets at function level only: dispatch.cc calls it
// after checking the CPU.
#include "crypto/dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

namespace ptperf::crypto::detail {

__attribute__((target("sha,sse4.1"))) void sha256_blocks_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  // Byte-swaps each 32-bit word: the message is big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  // Load A..H and rearrange into the ABEF/CDGH register layout.
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                  // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);            // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);   // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);         // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_save = state0;
    const __m128i cdgh_save = state1;
    __m128i w[4];

    // Sixteen groups of four rounds. Group g consumes schedule words
    // 4g..4g+3 (w[g % 4]); groups 3..14 finish the words of group g + 1
    // with msg2, and groups 1..12 start those of group g + 3 with msg1.
#pragma GCC unroll 16
    for (std::size_t g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            bswap);
      }
      __m128i msg = _mm_add_epi32(
          w[g % 4], _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                        kSha256RoundConstants + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
      if (g >= 3 && g <= 14) {
        __m128i& next = w[(g + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(w[g % 4], w[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, w[g % 4]);
      }
      msg = _mm_shuffle_epi32(msg, 0x0E);
      state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
      if (g >= 1 && g <= 12) {
        __m128i& later = w[(g + 3) % 4];
        later = _mm_sha256msg1_epu32(later, w[g % 4]);
      }
    }

    state0 = _mm_add_epi32(state0, abef_save);
    state1 = _mm_add_epi32(state1, cdgh_save);
  }

  // Back from ABEF/CDGH to A..H.
  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // ABEF
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

}  // namespace ptperf::crypto::detail

#else

namespace ptperf::crypto::detail {

// No SHA-NI on this architecture; cpu_has_sha_ni() is false, so dispatch
// never selects this.
void sha256_blocks_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks) {
  sha256_blocks_scalar(state, data, blocks);
}

}  // namespace ptperf::crypto::detail

#endif

// CPU feature dispatch for the per-cell crypto kernels. The SHA-256
// compression function and the ChaCha20 keystream each have a portable
// scalar kernel (the reference) and a SIMD kernel compiled for one ISA
// extension (SHA-NI, AVX2) behind a function-level target attribute, so the
// build needs no -march flag. kernels() picks one of each once per process.
// Every kernel computes exactly the same bytes; the choice changes speed,
// never output (docs/PERFORMANCE.md, "CPU feature dispatch").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ptperf::crypto {

/// Compresses `blocks` consecutive 64-byte blocks into the eight-word
/// SHA-256 chaining state.
using Sha256BlocksFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t blocks);

/// XORs `blocks` whole 64-byte ChaCha20 keystream blocks into `data`, the
/// first at the block counter in state[12] and the rest at the following
/// counters (wrapping mod 2^32 like the scalar counter). When `tail` is
/// non-null, the keystream block after the last XORed one is also written
/// to `tail` (64 bytes). Requires 1 <= blocks + (tail ? 1 : 0) <= 8; the
/// state is not modified.
using ChaCha20XorFn = void (*)(const std::uint32_t* state, std::uint8_t* data,
                               std::size_t blocks, std::uint8_t* tail);

struct Kernels {
  Sha256BlocksFn sha256_blocks;
  ChaCha20XorFn chacha20_xor;
  const char* sha256_name;    // "sha-ni" or "scalar"
  const char* chacha20_name;  // "avx2" or "scalar"

  /// "scalar" when both kernels are the reference ones, otherwise
  /// "<sha256>,<chacha20>" (e.g. "sha-ni,avx2").
  std::string names() const;
};

/// The kernels this process uses. The first call reads PTPERF_CRYPTO:
/// unset or "auto" selects the fastest kernels the CPU supports, "scalar"
/// forces the reference kernels, and any other value throws
/// std::invalid_argument (so does every later call).
const Kernels& kernels();

namespace detail {

/// The selection rule behind kernels(), for a given PTPERF_CRYPTO value
/// (nullptr = unset).
Kernels select_kernels(const char* mode);

bool cpu_has_sha_ni();
bool cpu_has_avx2();

// Reference kernels (always available).
void sha256_blocks_scalar(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks);
void chacha20_xor_scalar(const std::uint32_t* state, std::uint8_t* data,
                         std::size_t blocks, std::uint8_t* tail);

// SIMD kernels: call only when the matching cpu_has_*() is true.
void sha256_blocks_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                          std::size_t blocks);
void chacha20_xor_avx2(const std::uint32_t* state, std::uint8_t* data,
                       std::size_t blocks, std::uint8_t* tail);

/// FIPS 180-4 round constants, shared by both SHA-256 kernels.
extern const std::uint32_t kSha256RoundConstants[64];

}  // namespace detail
}  // namespace ptperf::crypto

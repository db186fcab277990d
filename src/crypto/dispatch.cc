#include "crypto/dispatch.h"

#include <cstdlib>
#include <stdexcept>
#include <string_view>

namespace ptperf::crypto {

std::string Kernels::names() const {
  if (sha256_blocks == detail::sha256_blocks_scalar &&
      chacha20_xor == detail::chacha20_xor_scalar)
    return "scalar";
  return std::string(sha256_name) + "," + chacha20_name;
}

const Kernels& kernels() {
  static const Kernels active =
      detail::select_kernels(std::getenv("PTPERF_CRYPTO"));
  return active;
}

namespace detail {

#if defined(__x86_64__) || defined(__i386__)
bool cpu_has_sha_ni() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
}
bool cpu_has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#else
bool cpu_has_sha_ni() { return false; }
bool cpu_has_avx2() { return false; }
#endif

Kernels select_kernels(const char* mode) {
  Kernels k{sha256_blocks_scalar, chacha20_xor_scalar, "scalar", "scalar"};
  std::string_view m = mode ? mode : "auto";
  if (m == "scalar") return k;
  if (m != "auto")
    throw std::invalid_argument("PTPERF_CRYPTO: unknown value '" +
                                std::string(m) +
                                "' (expected auto or scalar)");
  if (cpu_has_sha_ni()) {
    k.sha256_blocks = sha256_blocks_sha_ni;
    k.sha256_name = "sha-ni";
  }
  if (cpu_has_avx2()) {
    k.chacha20_xor = chacha20_xor_avx2;
    k.chacha20_name = "avx2";
  }
  return k;
}

}  // namespace detail
}  // namespace ptperf::crypto

#include "tor/onion.h"

namespace ptperf::tor {

RelayLayer::RelayLayer(const CircuitKeys& keys)
    : fwd_(keys.forward_key, keys.forward_nonce),
      bwd_(keys.backward_key, keys.backward_nonce) {
  fwd_digest_.update(keys.digest_seed);
  fwd_digest_.update(util::to_bytes("fwd"));
  bwd_digest_.update(keys.digest_seed);
  bwd_digest_.update(util::to_bytes("bwd"));
}

std::uint32_t RelayLayer::peek(const crypto::Sha256& state) {
  crypto::Sha256 copy = state;
  auto d = copy.finalize();
  return static_cast<std::uint32_t>(d[0]) << 24 |
         static_cast<std::uint32_t>(d[1]) << 16 |
         static_cast<std::uint32_t>(d[2]) << 8 | d[3];
}

std::uint32_t RelayLayer::commit(crypto::Sha256& state,
                                 util::BytesView payload) {
  state.update(payload);
  return peek(state);
}

bool RelayLayer::check(crypto::Sha256& state, util::BytesView payload,
                       std::uint32_t expected) {
  crypto::Sha256 candidate = state;
  candidate.update(payload);
  if (peek(candidate) != expected) return false;
  state = candidate;
  return true;
}

}  // namespace ptperf::tor

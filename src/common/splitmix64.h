#ifndef CSXA_COMMON_SPLITMIX64_H_
#define CSXA_COMMON_SPLITMIX64_H_

#include <cstdint>

namespace csxa {

/// splitmix64: advances `*state` and returns the next output. Tiny,
/// seedable and identical on every platform, so the corpus generator, the
/// fault proxy's seeded programs and the remote source's backoff jitter
/// are pure functions of their seeds (libc rand() is neither).
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace csxa

#endif  // CSXA_COMMON_SPLITMIX64_H_

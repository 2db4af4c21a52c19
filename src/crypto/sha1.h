#ifndef CSXA_CRYPTO_SHA1_H_
#define CSXA_CRYPTO_SHA1_H_

#include <array>
#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace csxa::crypto {

/// SHA-1 digest (20 bytes). Used for chunk digests and Merkle trees
/// (Section 6 / Appendix A of the paper use SHA-1 as the collision
/// resistant hash function).
using Sha1Digest = std::array<uint8_t, 20>;

/// Incremental SHA-1 (FIPS 180-1), implemented from scratch. The paper's
/// Figure F1 read also ships the terminal's intermediate state when a read
/// starts mid-fragment; every read here is fragment-aligned, so each leaf
/// hash starts fresh and no state ever leaves the hasher.
class Sha1 {
 public:
  Sha1() { Reset(); }

  void Reset();
  void Update(const uint8_t* data, size_t n);
  void Update(const std::vector<uint8_t>& data) {
    Update(data.data(), data.size());
  }
  void Update(const std::string& data) {
    Update(common::AsBytes(data), data.size());
  }

  /// Finalizes and returns the digest. The object must be Reset() before
  /// reuse.
  Sha1Digest Finish();

  /// One-shot convenience.
  static Sha1Digest Hash(const uint8_t* data, size_t n);
  static Sha1Digest Hash(const std::vector<uint8_t>& data) {
    return Hash(data.data(), data.size());
  }
  static Sha1Digest Hash(const std::string& data) {
    return Hash(common::AsBytes(data), data.size());
  }
  /// Hash of the concatenation of two digests (Merkle interior node).
  static Sha1Digest HashPair(const Sha1Digest& left, const Sha1Digest& right);

  /// The hash backend this process uses: "sha-ni" when the CPU's SHA
  /// extensions are live (and CSXA_FORCE_PORTABLE is unset), else
  /// "portable". All call sites — Merkle leaves, interior nodes, chunk
  /// digests — go through the same dispatch.
  static const char* ImplementationName();
  static bool HardwareAccelerated();

 private:
  void ProcessBlocks(const uint8_t* data, size_t nblocks);

  std::array<uint32_t, 5> h_;
  uint64_t length_ = 0;  // total bytes seen
  std::array<uint8_t, 64> buffer_{};
  size_t buffered_ = 0;
};

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_SHA1_H_

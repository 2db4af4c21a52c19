#ifndef CSXA_CRYPTO_POSITION_CIPHER_H_
#define CSXA_CRYPTO_POSITION_CIPHER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crypto/des.h"

namespace csxa::crypto {

/// The paper's encryption scheme (Appendix A): each 8-byte block `b` at
/// absolute block position `p` in the document is encrypted as
/// `E_k(b XOR p)` in ECB mode. Mixing the position into the plaintext makes
/// identical values at different positions encrypt differently (defeating
/// dictionary and substitution attacks) while preserving O(1) random-access
/// decryption — the property CBC lacks.
class PositionCipher {
 public:
  explicit PositionCipher(const TripleDes::Key& key) : cipher_(key) {}

  /// Encrypts/decrypts a single block at block index `block_index`
  /// (byte position / 8).
  Block64 EncryptBlock(const Block64& plain, uint64_t block_index) const;
  Block64 DecryptBlock(const Block64& cipher, uint64_t block_index) const;

  /// Whole-buffer helpers; `first_block_index` is the index of buf[0..8).
  /// Buffer must be block aligned.
  std::vector<uint8_t> Encrypt(const std::vector<uint8_t>& plain,
                               uint64_t first_block_index = 0) const;
  std::vector<uint8_t> Decrypt(const std::vector<uint8_t>& cipher_text,
                               uint64_t first_block_index = 0) const;

  /// In-place whole-segment transforms — the hot path. Position-mixed ECB
  /// has no dependency between blocks, so blocks go through the rounds
  /// side by side. On hosts that run the vector kernels,
  /// TripleDes::kSliceBlocks go per bitsliced pass while at least
  /// TripleDes::kSliceThreshold remain (the last pass zero-padded), and
  /// the whole 16-block groups of the rest (fragment reads of a few
  /// hundred bytes, where a padded pass would cost more) through the
  /// 16-lane kernel. What is left (24-byte digest seals, odd segment
  /// ends, every call elsewhere) goes TripleDes::kLanes at a time through
  /// the table kernel, the remainder one at a time. `n` must be a
  /// multiple of 8.
  void EncryptInPlace(uint8_t* data, size_t n,
                      uint64_t first_block_index) const;
  void DecryptInPlace(uint8_t* data, size_t n,
                      uint64_t first_block_index) const;

 private:
  TripleDes cipher_;
};

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_POSITION_CIPHER_H_

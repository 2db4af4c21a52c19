#ifndef CSXA_CRYPTO_AES_H_
#define CSXA_CRYPTO_AES_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace csxa::crypto {

/// AES-128 (FIPS 197), implemented from scratch: a byte-oriented portable
/// cipher plus AES-NI segment routines selected at runtime. The class only
/// provides the raw block transform; the position-mixed mode built on it
/// lives in cipher_backend.cc.
class Aes128 {
 public:
  using Key = std::array<uint8_t, 16>;

  explicit Aes128(const Key& key);

  /// Single-block portable transforms (the portable segment path, and the
  /// reference the segment API is tested against).
  void EncryptBlockPortable(const uint8_t in[16], uint8_t out[16]) const;
  void DecryptBlockPortable(const uint8_t in[16], uint8_t out[16]) const;

  /// Position-tweaked ECB over a whole segment, in place; `n` must be a
  /// multiple of 16. Block i of the segment has absolute block index
  /// `first_block + i`; its plaintext is XORed with the tweak — the
  /// 64-bit big-endian absolute *byte* position in the last 8 bytes of a
  /// 16-byte word — before encryption (and after decryption). This is the
  /// paper's position-mixing transposed to a 16-byte block. Dispatches to
  /// AES-NI when the CPU supports it and CSXA_FORCE_PORTABLE is unset,
  /// else to the portable cipher.
  void EncryptSegmentTweaked(uint8_t* data, size_t n,
                             uint64_t first_block) const;
  void DecryptSegmentTweaked(uint8_t* data, size_t n,
                             uint64_t first_block) const;

  /// True when EncryptSegmentTweaked would actually run AES-NI
  /// instructions on this machine.
  static bool HardwareAvailable();

 private:
  // Expanded key schedule: 11 round keys of 16 bytes, byte order matching
  // the FIPS state layout, and the AES-NI equivalent-inverse-cipher round
  // keys (InvMixColumns of rounds 1..9), computed only when usable.
  std::array<std::array<uint8_t, 16>, 11> rk_;
  std::array<std::array<uint8_t, 16>, 11> drk_;
  bool have_drk_ = false;
};

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_AES_H_

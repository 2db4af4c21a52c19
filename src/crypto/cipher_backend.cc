#include "crypto/cipher_backend.h"

#include <algorithm>

#include "crypto/aes.h"
#include "crypto/position_cipher.h"

namespace csxa::crypto {

namespace {

/// The reference backend: the paper's position-mixed 3DES-ECB, byte-for-
/// byte identical to the scheme PR 1 shipped (existing stores, digests
/// and wire baselines stay valid).
class Des3Backend : public CipherBackend {
 public:
  explicit Des3Backend(const TripleDes::Key& key) : cipher_(key) {}

  uint32_t block_size() const override { return 8; }

  void EncryptSegment(uint8_t* data, size_t n,
                      uint64_t first_block) const override {
    cipher_.EncryptInPlace(data, n, first_block);
  }
  void DecryptSegment(uint8_t* data, size_t n,
                      uint64_t first_block) const override {
    cipher_.DecryptInPlace(data, n, first_block);
  }

 private:
  PositionCipher cipher_;
};

/// Position-mixed AES-128-ECB over 16-byte blocks: the same scheme as the
/// 3DES reference with the tweak widened to the AES block (the 64-bit
/// big-endian byte position in the trailing 8 tweak bytes). Deliberately
/// *not* a keystream mode: a chunk digest's plaintext is predictable from
/// public data (the Merkle root is computable from served ciphertext), so
/// XORing a position-derived keystream would let the terminal recover pad
/// bytes and forge digests — ECB-with-tweak keeps the paper's security
/// argument intact (see ARCHITECTURE.md).
class AesBackend : public CipherBackend {
 public:
  AesBackend(const TripleDes::Key& key, bool allow_hardware)
      : aes_([&key] {
          Aes128::Key k;
          std::copy_n(key.begin(), k.size(), k.begin());
          return Aes128(k);
        }()),
        allow_hardware_(allow_hardware) {}

  uint32_t block_size() const override { return 16; }

  void EncryptSegment(uint8_t* data, size_t n,
                      uint64_t first_block) const override {
    aes_.EncryptSegmentTweaked(data, n, first_block, allow_hardware_);
  }
  void DecryptSegment(uint8_t* data, size_t n,
                      uint64_t first_block) const override {
    aes_.DecryptSegmentTweaked(data, n, first_block, allow_hardware_);
  }

 private:
  Aes128 aes_;
  bool allow_hardware_;
};

}  // namespace

std::unique_ptr<const CipherBackend> MakeCipherBackend(
    CipherBackendKind kind, const TripleDes::Key& key) {
  switch (kind) {
    case CipherBackendKind::kAes:
      return std::make_unique<AesBackend>(key, /*allow_hardware=*/true);
    case CipherBackendKind::kAesPortable:
      return std::make_unique<AesBackend>(key, /*allow_hardware=*/false);
    case CipherBackendKind::k3Des:
      break;
  }
  return std::make_unique<Des3Backend>(key);
}

const char* CipherBackendKindName(CipherBackendKind kind) {
  switch (kind) {
    case CipherBackendKind::kAes: return "aes";
    case CipherBackendKind::kAesPortable: return "aes-portable";
    case CipherBackendKind::k3Des: break;
  }
  return "3des";
}

Result<CipherBackendKind> ParseCipherBackendName(const std::string& name) {
  if (name == "3des") return CipherBackendKind::k3Des;
  if (name == "aes") return CipherBackendKind::kAes;
  if (name == "aes-portable") return CipherBackendKind::kAesPortable;
  return Status::InvalidArgument(
      "unknown cipher backend '" + name + "' (expected 3des, aes, or "
      "aes-portable)");
}

bool CipherBackendHardwareAccelerated(CipherBackendKind kind) {
  return kind == CipherBackendKind::kAes && Aes128::HardwareAvailable();
}

uint32_t CipherBackendBlockSize(CipherBackendKind kind) {
  return kind == CipherBackendKind::k3Des ? 8 : 16;
}

}  // namespace csxa::crypto

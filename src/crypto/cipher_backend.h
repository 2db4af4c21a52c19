#ifndef CSXA_CRYPTO_CIPHER_BACKEND_H_
#define CSXA_CRYPTO_CIPHER_BACKEND_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "crypto/des.h"

namespace csxa::crypto {

/// Upper bound on CipherBackend::block_size() across all backends, for
/// stack scratch buffers.
inline constexpr uint32_t kMaxCipherBlockSize = 16;

/// A position-mixed block cipher behind the store/decryptor hot path. The
/// paper (Appendix A, Figure 11) treats the cipher configuration as a
/// design axis; this interface makes it one. Every backend implements the
/// same scheme — C_j = E_k(B_j XOR tweak(j)) in ECB over its own block
/// size, where tweak(j) is derived from the absolute block index j — so
/// each backend keeps the paper's properties: identical plaintext blocks
/// at different positions encrypt differently (no dictionary attacks),
/// moved ciphertext decrypts to garbage (no substitution attacks), and any
/// block is decryptable in O(1) without touching its neighbours (the
/// random-access property CBC lacks).
///
/// Segments, not blocks, cross this interface: verification hands a whole
/// contiguous block run (data pointer, byte length, starting block index)
/// to one virtual call, so an implementation can pipeline or vectorize
/// across blocks instead of paying per-block dispatch.
class CipherBackend {
 public:
  virtual ~CipherBackend() = default;

  /// The cipher block size in bytes (8 for 3DES, 16 for AES). Fragment
  /// sizes must be multiples of this; ciphertext is padded to it.
  virtual uint32_t block_size() const = 0;

  /// In-place whole-segment transforms. `n` must be a multiple of
  /// block_size(); `first_block` is the absolute block index of data[0].
  virtual void EncryptSegment(uint8_t* data, size_t n,
                              uint64_t first_block) const = 0;
  virtual void DecryptSegment(uint8_t* data, size_t n,
                              uint64_t first_block) const = 0;
};

enum class CipherBackendKind {
  k3Des,  ///< Paper-faithful position-mixed 3DES (the default).
  kAes,   ///< Position-mixed AES-128; AES-NI when the CPU has it.
};

/// Constructs a backend over the 24-byte document key (the AES backend
/// derives its 16-byte key from its first 16 bytes). Never fails: every
/// kind has a software path on every machine.
std::unique_ptr<const CipherBackend> MakeCipherBackend(
    CipherBackendKind kind, const TripleDes::Key& key);

const char* CipherBackendKindName(CipherBackendKind kind);

/// Parses "3des" / "aes" (the --backend flag values).
Result<CipherBackendKind> ParseCipherBackendName(const std::string& name);

/// Whether a backend of `kind` would run hardware crypto instructions
/// here, without constructing one (for reports and CI gating).
bool CipherBackendHardwareAccelerated(CipherBackendKind kind);

/// Block size of a backend of `kind`, without constructing one (layout
/// validation, wire-cost math).
uint32_t CipherBackendBlockSize(CipherBackendKind kind);

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_CIPHER_BACKEND_H_

#include "crypto/position_cipher.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace csxa::crypto {

namespace {

Block64 XorPosition(const Block64& b, uint64_t block_index) {
  // The absolute byte position of the block, big-endian, XORed in.
  uint64_t pos = block_index * 8;
  Block64 out;
  for (int i = 0; i < 8; ++i) {
    out[i] = b[i] ^ static_cast<uint8_t>(pos >> (56 - 8 * i));
  }
  return out;
}

inline uint64_t LoadBe64(const uint8_t* p) {
  uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

inline void StoreBe64(uint8_t* p, uint64_t v) {
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  std::memcpy(p, &v, sizeof v);
}

/// One pass over a block-aligned segment. On hosts that run the vector
/// kernels, up to kSliceBlocks blocks at a time go through the bitsliced
/// kernel while kSliceThreshold or more remain, then the whole 16-block
/// groups of the rest through the 16-lane kernel. The remaining blocks go
/// kLanes at a time through the interleaved table rounds, then one at a
/// time. A big-endian-loaded block XORed with the integer byte position
/// is exactly the per-byte position mix of XorPosition; encryption mixes
/// it in before the cipher, decryption after.
template <bool kEncrypt>
void Sweep(const TripleDes& cipher, uint8_t* data, size_t n,
           uint64_t first_block_index) {
  constexpr size_t kStride = 8 * TripleDes::kLanes;
  const uint64_t base = first_block_index * 8;
  size_t off = 0;
  if (TripleDes::VectorKernelsAvailable()) {
    while ((n - off) / 8 >= TripleDes::kSliceThreshold) {
      const size_t blocks = std::min((n - off) / 8, TripleDes::kSliceBlocks);
      if constexpr (kEncrypt) {
        cipher.EncryptSliced(data + off, blocks, base + off);
      } else {
        cipher.DecryptSliced(data + off, blocks, base + off);
      }
      off += 8 * blocks;
    }
    const size_t groups = (n - off) / (8 * TripleDes::kWideBlocks);
    if (groups > 0) {
      if constexpr (kEncrypt) {
        cipher.EncryptWide(data + off, groups, base + off);
      } else {
        cipher.DecryptWide(data + off, groups, base + off);
      }
      off += 8 * TripleDes::kWideBlocks * groups;
    }
  }
  for (; off + kStride <= n; off += kStride) {
    TripleDes::Lanes lanes;  // every lane is loaded below
    for (size_t k = 0; k < lanes.size(); ++k) {
      lanes[k] = LoadBe64(data + off + 8 * k);
      if constexpr (kEncrypt) lanes[k] ^= base + off + 8 * k;
    }
    if constexpr (kEncrypt) {
      cipher.EncryptLanes(lanes);
    } else {
      cipher.DecryptLanes(lanes);
    }
    for (size_t k = 0; k < lanes.size(); ++k) {
      if constexpr (!kEncrypt) lanes[k] ^= base + off + 8 * k;
      StoreBe64(data + off + 8 * k, lanes[k]);
    }
  }
  for (; off + 8 <= n; off += 8) {
    const uint64_t block = LoadBe64(data + off);
    StoreBe64(data + off,
              kEncrypt ? cipher.EncryptU64(block ^ (base + off))
                       : cipher.DecryptU64(block) ^ (base + off));
  }
}

}  // namespace

Block64 PositionCipher::EncryptBlock(const Block64& plain,
                                     uint64_t block_index) const {
  return cipher_.EncryptBlock(XorPosition(plain, block_index));
}

Block64 PositionCipher::DecryptBlock(const Block64& cipher,
                                     uint64_t block_index) const {
  return XorPosition(cipher_.DecryptBlock(cipher), block_index);
}

void PositionCipher::EncryptInPlace(uint8_t* data, size_t n,
                                    uint64_t first_block_index) const {
  Sweep<true>(cipher_, data, n, first_block_index);
}

void PositionCipher::DecryptInPlace(uint8_t* data, size_t n,
                                    uint64_t first_block_index) const {
  Sweep<false>(cipher_, data, n, first_block_index);
}

std::vector<uint8_t> PositionCipher::Encrypt(
    const std::vector<uint8_t>& plain, uint64_t first_block_index) const {
  std::vector<uint8_t> out = plain;
  EncryptInPlace(out.data(), out.size(), first_block_index);
  return out;
}

std::vector<uint8_t> PositionCipher::Decrypt(
    const std::vector<uint8_t>& cipher_text,
    uint64_t first_block_index) const {
  std::vector<uint8_t> out = cipher_text;
  DecryptInPlace(out.data(), out.size(), first_block_index);
  return out;
}

}  // namespace csxa::crypto

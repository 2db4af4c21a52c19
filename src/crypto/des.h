#ifndef CSXA_CRYPTO_DES_H_
#define CSXA_CRYPTO_DES_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace csxa::crypto {

/// 8-byte cipher block, the paper's unit of encryption (Appendix A:
/// "subdivided in blocks of 8 bytes ... the block is the unit of
/// encryption").
using Block64 = std::array<uint8_t, 8>;

/// Single DES (FIPS 46-3), implemented from scratch from the standard's
/// permutation and S-box tables. Each Feistel round XORs two rotations of
/// the right half with a packed round key and makes eight lookups into
/// combined S/P boxes, one per byte-aligned six-bit field, so the
/// expansion E costs no lookups at all. IP and FP run on byte-indexed
/// tables. All tables are generated at startup from the FIPS tables, so
/// the known-answer tests pin them; the bit-by-bit reference permutation
/// survives only in key scheduling and table generation. Kept for
/// completeness and as the building block of 3DES; use TripleDes for
/// actual document protection.
class Des {
 public:
  /// A 48-bit round key split for the round function: `even` holds the
  /// six-bit groups of S-boxes 1, 7, 5, 3 and `odd` those of S-boxes
  /// 2, 8, 6, 4, one group in the low six bits of each byte.
  struct RoundKey {
    uint32_t even = 0;
    uint32_t odd = 0;
  };

  /// `key` is 8 bytes; parity bits are ignored as in the standard.
  explicit Des(const Block64& key);

  Block64 EncryptBlock(const Block64& plain) const;
  Block64 DecryptBlock(const Block64& cipher) const;

  /// Allocation-free transforms of a block held as a big-endian uint64.
  uint64_t EncryptU64(uint64_t block) const;
  uint64_t DecryptU64(uint64_t block) const;

 private:
  friend class TripleDes;

  std::array<RoundKey, 16> encrypt_;  // round keys in encryption order
  std::array<RoundKey, 16> decrypt_;  // the same keys reversed
};

/// Triple-DES in EDE mode with a 24-byte key (K1,K2,K3), the cipher used by
/// the paper's prototype (hardwired 3DES on the Axalto smart card). Both
/// directions run as one 48-round schedule with the EDE order and the key
/// reversal of the decrypting passes baked in: one IP, 48 rounds, one FP,
/// the inner FP∘IP pairs cancelled.
///
/// Three kernels run that schedule. The table kernel (one block, or kLanes
/// blocks interleaved) runs everywhere. On hosts with AVX-512F two more
/// run segments (PositionCipher decides). The bitsliced kernel (Biham, "A
/// Fast New DES Implementation in Software", FSE 1997) runs kSliceBlocks
/// blocks per pass: bit n of every block sits in one 512-bit slice, so IP,
/// E, P and FP are relabelings of slices and each S-box is a circuit of
/// vpternlog operations derived from the FIPS tables. A pass costs the
/// same however few blocks it carries, so it takes only runs of at least
/// kSliceThreshold blocks. The 16-lane kernel runs the table kernel's
/// rounds on kWideBlocks blocks at once, one per dword lane, with each S/P
/// box as two vpermt2d table pairs and IP and FP as swap-move networks; it
/// takes the whole 16-block groups of shorter runs. The single-block API
/// always runs the table kernel.
class TripleDes {
 public:
  using Key = std::array<uint8_t, 24>;

  /// Blocks the table kernel's lane transforms carry through the rounds
  /// together. The lanes are independent, so their lookups overlap in the
  /// pipeline. On x86-64 (gcc 12, -O2) 4 lanes ran 2.4x one lane on
  /// 256-byte segments; 2 and 3 lanes were slower, 6 no faster (a 32-block
  /// fragment leaves it a 2-block tail), 8 spilled registers. Tails of
  /// fewer than kWideBlocks blocks, and every call on hosts without
  /// AVX-512F or under CSXA_FORCE_PORTABLE=1, run here.
  static constexpr size_t kLanes = 4;
  using Lanes = std::array<uint64_t, kLanes>;

  /// Blocks per pass of the 16-lane kernel: one per dword lane.
  static constexpr size_t kWideBlocks = 16;
  /// Blocks per pass of the bitsliced kernel: one per bit of a slice.
  static constexpr size_t kSliceBlocks = 512;
  /// Shortest run worth a bitsliced pass. A pass costs the same for 1 or
  /// 512 blocks: 6.25 us median against 0.65 us per 16-block pass of the
  /// 16-lane kernel and 0.12 us per block on the table kernel (Xeon with
  /// AVX-512, gcc 12, -O2), so the break-even is ~160 blocks: at 160 both
  /// took 6.2 us, at 128 the 16-lane kernel took 5.0 us, at 192 7.4 us.
  /// Below 64 blocks the bitsliced pass lost to the table kernel alone.
  static constexpr size_t kSliceThreshold = 160;

  explicit TripleDes(const Key& key);

  /// True when the bitsliced and 16-lane kernels run on this host:
  /// AVX-512F is usable and CSXA_FORCE_PORTABLE is unset.
  static bool VectorKernelsAvailable();

  Block64 EncryptBlock(const Block64& plain) const;
  Block64 DecryptBlock(const Block64& cipher) const;

  /// Big-endian-uint64 block transforms.
  uint64_t EncryptU64(uint64_t block) const;
  uint64_t DecryptU64(uint64_t block) const;

  /// kLanes independent big-endian-uint64 blocks transformed in place:
  /// the table kernel's segment path.
  void EncryptLanes(Lanes& blocks) const;
  void DecryptLanes(Lanes& blocks) const;

  /// One bitsliced pass over `blocks` (1 .. kSliceBlocks) 8-byte blocks
  /// in place, block k read big-endian and XORed with `mix + 8k` before
  /// encryption or after decryption (PositionCipher's position mix). A
  /// short pass is zero-padded. Only when VectorKernelsAvailable().
  void EncryptSliced(uint8_t* data, size_t blocks, uint64_t mix) const;
  void DecryptSliced(uint8_t* data, size_t blocks, uint64_t mix) const;

  /// `groups` 16-lane passes over groups × kWideBlocks blocks in place,
  /// with the position mix of EncryptSliced. Only when
  /// VectorKernelsAvailable().
  void EncryptWide(uint8_t* data, size_t groups, uint64_t mix) const;
  void DecryptWide(uint8_t* data, size_t groups, uint64_t mix) const;

 private:
  std::array<Des::RoundKey, 48> encrypt_;
  std::array<Des::RoundKey, 48> decrypt_;
  // The bitsliced kernel's view of encrypt_: for round r and key bit b
  // (S-box b / 6, input bit b % 6), all ones or all zero, broadcast into
  // a slice. Decryption walks the rounds backwards. Filled only when
  // VectorKernelsAvailable().
  std::array<uint32_t, 48 * 48> slice_keys_{};
};

/// The kernel that runs 3DES segments of kSliceThreshold blocks or more on
/// this host: "bitsliced-avx512" or "table".
const char* TripleDesKernelName();

/// The kernel that runs the 16-block groups of shorter 3DES segments on
/// this host: "table-avx512" (the 16-lane kernel) or "table".
const char* TripleDesShortKernelName();

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_DES_H_

#include "crypto/des.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "crypto/cpu_features.h"

#if defined(__x86_64__)
#define CSXA_BITSLICE_POSSIBLE 1
#include <immintrin.h>
#endif

namespace csxa::crypto {

namespace {

// All tables are the FIPS 46-3 tables, 1-based bit indices from the MSB as
// in the standard.

constexpr int kIp[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17, 9,  1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7};

constexpr int kFp[64] = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41, 9,  49, 17, 57, 25};

constexpr int kPbox[32] = {16, 7,  20, 21, 29, 12, 28, 17, 1,  15, 23,
                           26, 5,  18, 31, 10, 2,  8,  24, 14, 32, 27,
                           3,  9,  19, 13, 30, 6,  22, 11, 4,  25};

constexpr int kPc1[56] = {57, 49, 41, 33, 25, 17, 9,  1,  58, 50, 42, 34,
                          26, 18, 10, 2,  59, 51, 43, 35, 27, 19, 11, 3,
                          60, 52, 44, 36, 63, 55, 47, 39, 31, 23, 15, 7,
                          62, 54, 46, 38, 30, 22, 14, 6,  61, 53, 45, 37,
                          29, 21, 13, 5,  28, 20, 12, 4};

constexpr int kPc2[48] = {14, 17, 11, 24, 1,  5,  3,  28, 15, 6,  21, 10,
                          23, 19, 12, 4,  26, 8,  16, 7,  27, 20, 13, 2,
                          41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
                          44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32};

constexpr int kShifts[16] = {1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1};

constexpr uint8_t kSbox[8][64] = {
    {14, 4,  13, 1, 2,  15, 11, 8,  3,  10, 6,  12, 5,  9,  0, 7,
     0,  15, 7,  4, 14, 2,  13, 1,  10, 6,  12, 11, 9,  5,  3, 8,
     4,  1,  14, 8, 13, 6,  2,  11, 15, 12, 9,  7,  3,  10, 5, 0,
     15, 12, 8,  2, 4,  9,  1,  7,  5,  11, 3,  14, 10, 0,  6, 13},
    {15, 1,  8,  14, 6,  11, 3,  4,  9,  7, 2,  13, 12, 0, 5,  10,
     3,  13, 4,  7,  15, 2,  8,  14, 12, 0, 1,  10, 6,  9, 11, 5,
     0,  14, 7,  11, 10, 4,  13, 1,  5,  8, 12, 6,  9,  3, 2,  15,
     13, 8,  10, 1,  3,  15, 4,  2,  11, 6, 7,  12, 0,  5, 14, 9},
    {10, 0,  9,  14, 6, 3,  15, 5,  1,  13, 12, 7,  11, 4,  2,  8,
     13, 7,  0,  9,  3, 4,  6,  10, 2,  8,  5,  14, 12, 11, 15, 1,
     13, 6,  4,  9,  8, 15, 3,  0,  11, 1,  2,  12, 5,  10, 14, 7,
     1,  10, 13, 0,  6, 9,  8,  7,  4,  15, 14, 3,  11, 5,  2,  12},
    {7,  13, 14, 3, 0,  6,  9,  10, 1,  2, 8, 5,  11, 12, 4,  15,
     13, 8,  11, 5, 6,  15, 0,  3,  4,  7, 2, 12, 1,  10, 14, 9,
     10, 6,  9,  0, 12, 11, 7,  13, 15, 1, 3, 14, 5,  2,  8,  4,
     3,  15, 0,  6, 10, 1,  13, 8,  9,  4, 5, 11, 12, 7,  2,  14},
    {2,  12, 4,  1,  7,  10, 11, 6,  8,  5,  3,  15, 13, 0, 14, 9,
     14, 11, 2,  12, 4,  7,  13, 1,  5,  0,  15, 10, 3,  9, 8,  6,
     4,  2,  1,  11, 10, 13, 7,  8,  15, 9,  12, 5,  6,  3, 0,  14,
     11, 8,  12, 7,  1,  14, 2,  13, 6,  15, 0,  9,  10, 4, 5,  3},
    {12, 1,  10, 15, 9, 2,  6,  8,  0,  13, 3,  4,  14, 7,  5,  11,
     10, 15, 4,  2,  7, 12, 9,  5,  6,  1,  13, 14, 0,  11, 3,  8,
     9,  14, 15, 5,  2, 8,  12, 3,  7,  0,  4,  10, 1,  13, 11, 6,
     4,  3,  2,  12, 9, 5,  15, 10, 11, 14, 1,  7,  6,  0,  8,  13},
    {4,  11, 2,  14, 15, 0, 8,  13, 3,  12, 9, 7,  5,  10, 6, 1,
     13, 0,  11, 7,  4,  9, 1,  10, 14, 3,  5, 12, 2,  15, 8, 6,
     1,  4,  11, 13, 12, 3, 7,  14, 10, 15, 6, 8,  0,  5,  9, 2,
     6,  11, 13, 8,  1,  4, 10, 7,  9,  5,  0, 15, 14, 2,  3, 12},
    {13, 2,  8,  4, 6,  15, 11, 1,  10, 9,  3,  14, 5,  0,  12, 7,
     1,  15, 13, 8, 10, 3,  7,  4,  12, 5,  6,  11, 0,  14, 9,  2,
     7,  11, 4,  1, 9,  12, 14, 2,  0,  6,  10, 13, 15, 3,  5,  8,
     2,  1,  14, 7, 4,  10, 8,  13, 15, 12, 9,  0,  3,  5,  6,  11}};

inline uint64_t BytesToU64(const Block64& b) {
  uint64_t v = 0;
  for (uint8_t byte : b) v = (v << 8) | byte;
  return v;
}

inline Block64 U64ToBytes(uint64_t v) {
  Block64 b;
  for (int i = 7; i >= 0; --i) {
    b[i] = static_cast<uint8_t>(v & 0xFF);
    v >>= 8;
  }
  return b;
}

/// Applies a permutation given in DES's 1-based MSB-first convention.
/// `in_width` is the bit width of the input; `table_size` that of the
/// output. Reference implementation for key scheduling and for generating
/// the lookup tables below.
inline uint64_t Permute(uint64_t in, int in_width, const int* table,
                        int table_size) {
  uint64_t out = 0;
  for (int i = 0; i < table_size; ++i) {
    int src = table[i];  // 1-based from MSB
    uint64_t bit = (in >> (in_width - src)) & 1;
    out = (out << 1) | bit;
  }
  return out;
}

inline uint32_t Rotl28(uint32_t v, int s) {
  return ((v << s) | (v >> (28 - s))) & 0x0FFFFFFFu;
}

inline uint32_t Rotl32(uint32_t v, int s) {
  return (v << s) | (v >> (32 - s));
}

/// Precomputed per-byte permutation tables and combined S/P boxes. Bit
/// permutations are linear over XOR, so any permutation of a word is the
/// XOR of the permutations of its bytes — eight lookups replace a 64-step
/// bit loop. The S/P tables fold the P-box into each S-box's output. F
/// indexes them with a whole byte whose low six bits are the S-box input
/// in E's order; the top two bits are ignored, so F needs no masks.
/// `wide` holds the first 64 entries of each S/P box for the 16-lane
/// kernel, entries 32..63 XORed with entries 0..31 (see WideLookup).
struct DesTables {
  uint64_t ip[8][256];
  uint64_t fp[8][256];
  uint32_t sp[8][256];  // P(sbox output placed at its nibble)
  alignas(64) uint32_t wide[8][64];

  DesTables() {
    for (int bi = 0; bi < 8; ++bi) {
      for (int val = 0; val < 256; ++val) {
        uint64_t in = static_cast<uint64_t>(val) << (56 - 8 * bi);
        ip[bi][val] = Permute(in, 64, kIp, 64);
        fp[bi][val] = Permute(in, 64, kFp, 64);
      }
    }
    for (int box = 0; box < 8; ++box) {
      for (int byte = 0; byte < 256; ++byte) {
        int six = byte & 0x3F;
        int row = ((six & 0x20) >> 4) | (six & 1);
        int col = (six >> 1) & 0xF;
        uint32_t nibble = static_cast<uint32_t>(kSbox[box][row * 16 + col])
                          << (28 - 4 * box);
        sp[box][byte] = static_cast<uint32_t>(Permute(nibble, 32, kPbox, 32));
      }
      for (int six = 0; six < 64; ++six) {
        wide[box][six] = sp[box][six] ^ (six < 32 ? 0 : sp[box][six - 32]);
      }
    }
  }
};

const DesTables& Tabs() {
  static const DesTables tables;
  return tables;
}

inline uint64_t ApplyByteTab(const uint64_t (&tab)[8][256], uint64_t v) {
  return tab[0][(v >> 56) & 0xFF] ^ tab[1][(v >> 48) & 0xFF] ^
         tab[2][(v >> 40) & 0xFF] ^ tab[3][(v >> 32) & 0xFF] ^
         tab[4][(v >> 24) & 0xFF] ^ tab[5][(v >> 16) & 0xFF] ^
         tab[6][(v >> 8) & 0xFF] ^ tab[7][v & 0xFF];
}

/// Packs a 48-bit round key (the six bits of S-box j + 1 at 42 - 6j) for F.
Des::RoundKey Pack(uint64_t subkey) {
  auto group = [subkey](int box) {
    return static_cast<uint32_t>(subkey >> (42 - 6 * box)) & 0x3F;
  };
  return {group(0) | group(6) << 8 | group(4) << 16 | group(2) << 24,
          group(1) | group(7) << 8 | group(5) << 16 | group(3) << 24};
}

/// The cipher function f(R, K). E feeds S-box j + 1 the bits 4j .. 4j+5
/// of R (1-based from the MSB, bit 0 being bit 32). Rotating R left by 5 puts
/// the groups of S-boxes 1, 7, 5, 3 in the low six bits of bytes 0..3 and
/// rotating it by 9 does the same for S-boxes 2, 8, 6, 4, so the
/// expansion is two rotations and the key mixes in with two XORs. The
/// eight lookups take whole bytes (see DesTables::sp).
inline uint32_t F(const DesTables& t, uint32_t r, Des::RoundKey k) {
  const uint32_t u = Rotl32(r, 5) ^ k.even;
  const uint32_t v = Rotl32(r, 9) ^ k.odd;
  return t.sp[0][u & 0xFF] ^ t.sp[6][(u >> 8) & 0xFF] ^
         t.sp[4][(u >> 16) & 0xFF] ^ t.sp[2][u >> 24] ^
         t.sp[1][v & 0xFF] ^ t.sp[7][(v >> 8) & 0xFF] ^
         t.sp[5][(v >> 16) & 0xFF] ^ t.sp[3][v >> 24];
}

/// Calls fn(0) .. fn(K - 1) unrolled: with every lane index a constant,
/// the per-lane halves stay in registers.
template <size_t K, typename Fn>
inline void ForLanes(Fn&& fn) {
  [&]<size_t... k>(std::index_sequence<k...>) {
    (fn(k), ...);
  }(std::make_index_sequence<K>{});
}

/// Runs K independent blocks through IP, `rounds` Feistel rounds under
/// `keys` and FP. `rounds` is a multiple of 16: each 16-round set ends on
/// the pre-output R16 || L16, which the next set takes as its L0 || R0 —
/// the inner FP∘IP pairs of EDE cancel. The K blocks share no state, so
/// their lookups interleave; K = 1 is the single-block transform.
template <size_t K>
inline void Crypt(uint64_t* blocks, const Des::RoundKey* keys,
                  size_t rounds) {
  const DesTables& t = Tabs();
  uint32_t left[K] = {};
  uint32_t right[K] = {};
  ForLanes<K>([&](size_t k) {
    const uint64_t state = ApplyByteTab(t.ip, blocks[k]);
    left[k] = static_cast<uint32_t>(state >> 32);
    right[k] = static_cast<uint32_t>(state);
  });
  for (size_t set = 0; set < rounds; set += 16) {
    // Two rounds per step, so the halves trade roles instead of places.
    for (size_t i = set; i < set + 16; i += 2) {
      ForLanes<K>([&](size_t k) { left[k] ^= F(t, right[k], keys[i]); });
      ForLanes<K>([&](size_t k) { right[k] ^= F(t, left[k], keys[i + 1]); });
    }
    ForLanes<K>([&](size_t k) { std::swap(left[k], right[k]); });
  }
  ForLanes<K>([&](size_t k) {
    blocks[k] = ApplyByteTab(
        t.fp, (static_cast<uint64_t>(left[k]) << 32) | right[k]);
  });
}

#ifdef CSXA_BITSLICE_POSSIBLE

// ---- The bitsliced kernel. A pass holds 512 blocks as 64 slices: after
// the transpose, bit i of lane q in slice s is bit s of block 8i + q, so
// slice 64 - n holds FIPS bit n of every block and each permutation is a
// table of slice indices.

/// The truth table of one leaf of an S-box circuit, as a vpternlog
/// immediate. The six input bits b1..b6 split into leaf inputs (b1, b2,
/// b3), the immediate's operands A, B, C, and selectors (b4, b5, b6):
/// leaf `sel` = (b4 b5 b6) of output bit `out` (0 = the nibble's MSB) maps
/// b1 b2 b3 to that output bit.
constexpr int LeafTable(int box, int out, int sel) {
  int imm = 0;
  for (int abc = 0; abc < 8; ++abc) {
    const int six = abc << 3 | sel;  // b1 .. b6, b1 the MSB
    const int row = (six >> 4 & 2) | (six & 1);
    const int col = six >> 1 & 0xF;
    imm |= (kSbox[box][row * 16 + col] >> (3 - out) & 1) << abc;
  }
  return imm;
}

/// E: S-box `box`'s input bit `bit` (0 = b1) is R's bit 4 box + bit - 1,
/// wrapping (0-based from the MSB).
constexpr int ExpandSource(int box, int bit) {
  return (4 * box + bit + 31) % 32;
}

/// P⁻¹: the f output bit (0-based) that S-box output bit `pre` feeds.
constexpr int PermuteTarget(int pre) {
  int k = 0;
  while (kPbox[k] != pre + 1) ++k;
  return k;
}

// gcc 12's unmasked AVX-512 shift and rotate intrinsics pass an
// intentionally undefined vector as the merge source, which it then
// reports as uninitialized once they are inlined here.
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

/// s ? a : b. `a` is the operand vpternlog overwrites: callers pass a
/// dead temporary there, so the selector needs no copy.
__attribute__((target("avx512f"), always_inline)) inline __m512i Select(
    __m512i s, __m512i a, __m512i b) {
  return _mm512_ternarylogic_epi64(a, s, b, 0xE2);
}

template <int kBox, int kOut, int kSel>
__attribute__((target("avx512f"), always_inline)) inline __m512i Leaf(
    const __m512i* x) {
  constexpr int kImm = LeafTable(kBox, kOut, kSel);
  return _mm512_ternarylogic_epi64(x[0], x[1], x[2], kImm);
}

/// One output bit of S-box kBox: eight leaves, then three levels of
/// select on b6, b5 and b4. 15 ternary operations.
template <int kBox, int kOut>
__attribute__((target("avx512f"), always_inline)) inline __m512i SboxBit(
    const __m512i* x) {
  const __m512i s0 =
      Select(x[5], Leaf<kBox, kOut, 1>(x), Leaf<kBox, kOut, 0>(x));
  const __m512i s1 =
      Select(x[5], Leaf<kBox, kOut, 3>(x), Leaf<kBox, kOut, 2>(x));
  const __m512i s2 =
      Select(x[5], Leaf<kBox, kOut, 5>(x), Leaf<kBox, kOut, 4>(x));
  const __m512i s3 =
      Select(x[5], Leaf<kBox, kOut, 7>(x), Leaf<kBox, kOut, 6>(x));
  return Select(x[3], Select(x[4], s3, s2), Select(x[4], s1, s0));
}

/// S-box kBox's input bit kBit: E's slice of `r` XOR the round key bit.
template <int kBox, int kBit>
__attribute__((target("avx512f"), always_inline)) inline __m512i KeyXor(
    const __m512i* r, const uint32_t* k) {
  return _mm512_xor_si512(
      r[ExpandSource(kBox, kBit)],
      _mm512_set1_epi32(static_cast<int>(k[6 * kBox + kBit])));
}

/// S-box kBox of one round: six key XORs on E's slices of `r`, the
/// circuit, and P's XOR of the four outputs into `l`.
template <int kBox>
__attribute__((target("avx512f"), always_inline)) inline void SboxSlices(
    const __m512i* r, __m512i* l, const uint32_t* k) {
  const __m512i x[6] = {KeyXor<kBox, 0>(r, k), KeyXor<kBox, 1>(r, k),
                        KeyXor<kBox, 2>(r, k), KeyXor<kBox, 3>(r, k),
                        KeyXor<kBox, 4>(r, k), KeyXor<kBox, 5>(r, k)};
  constexpr int kT0 = PermuteTarget(4 * kBox);
  constexpr int kT1 = PermuteTarget(4 * kBox + 1);
  constexpr int kT2 = PermuteTarget(4 * kBox + 2);
  constexpr int kT3 = PermuteTarget(4 * kBox + 3);
  l[kT0] = _mm512_xor_si512(l[kT0], SboxBit<kBox, 0>(x));
  l[kT1] = _mm512_xor_si512(l[kT1], SboxBit<kBox, 1>(x));
  l[kT2] = _mm512_xor_si512(l[kT2], SboxBit<kBox, 2>(x));
  l[kT3] = _mm512_xor_si512(l[kT3], SboxBit<kBox, 3>(x));
}

/// l ^= f(r, k) on 512 blocks; `k` holds the round's 48 key slices.
__attribute__((target("avx512f"))) void RoundSlices(const __m512i* r,
                                                    __m512i* l,
                                                    const uint32_t* k) {
  SboxSlices<0>(r, l, k);
  SboxSlices<1>(r, l, k);
  SboxSlices<2>(r, l, k);
  SboxSlices<3>(r, l, k);
  SboxSlices<4>(r, l, k);
  SboxSlices<5>(r, l, k);
  SboxSlices<6>(r, l, k);
  SboxSlices<7>(r, l, k);
}

/// Transposes each 64x64 bit matrix formed by lane q of v[0..63]: bit c
/// of v[i] trades places with bit i of v[c]. Six stages of masked swaps;
/// it is its own inverse.
__attribute__((target("avx512f"))) void Transpose(__m512i* v) {
  constexpr uint64_t kLow[6] = {0x00000000FFFFFFFF, 0x0000FFFF0000FFFF,
                                0x00FF00FF00FF00FF, 0x0F0F0F0F0F0F0F0F,
                                0x3333333333333333, 0x5555555555555555};
  for (int stage = 0, j = 32; stage < 6; ++stage, j >>= 1) {
    const __m512i low =
        _mm512_set1_epi64(static_cast<long long>(kLow[stage]));
    for (int i = 0; i < 64; ++i) {
      if ((i & j) != 0) continue;
      // t = the high bits of v[i] XOR the low bits of v[i + j], in place
      // of the low bits: swapping them is two XORs.
      const unsigned shift = static_cast<unsigned>(j);
      const __m512i t = _mm512_ternarylogic_epi64(
          _mm512_srli_epi64(v[i], shift), v[i + j], low,
          0x28);  // (a ^ b) & c
      v[i + j] = _mm512_xor_si512(v[i + j], t);
      v[i] = _mm512_xor_si512(v[i], _mm512_slli_epi64(t, shift));
    }
  }
}

/// Byte-reverses each 64-bit lane (AVX-512F has no byte shuffle).
__attribute__((target("avx512f"))) inline __m512i ByteSwap(__m512i x) {
  x = _mm512_rol_epi32(_mm512_rol_epi64(x, 32), 16);
  return Select(_mm512_set1_epi64(0x00FF00FF00FF00FF),
                _mm512_srli_epi64(x, 8), _mm512_slli_epi64(x, 8));
}

/// The position mix of vector i: lane_mix plus the 64 i bytes before it.
__attribute__((target("avx512f"), always_inline)) inline __m512i MixOf(
    __m512i lane_mix, size_t i) {
  return _mm512_add_epi64(lane_mix,
                          _mm512_set1_epi64(static_cast<long long>(64 * i)));
}

/// One pass over kSliceBlocks blocks at `data`: load big-endian, position
/// mix, transpose, IP, 48 rounds with the key slices at `keys` walked
/// `step` apart, FP, transpose back, store.
template <bool kEncrypt>
__attribute__((target("avx512f"))) void CryptSlices(uint8_t* data,
                                                    uint64_t mix,
                                                    const uint32_t* keys,
                                                    ptrdiff_t step) {
  // Vector i holds blocks 8i .. 8i + 7: lane q's block sits 64 i + 8 q
  // bytes into the pass.
  const __m512i lane_mix = _mm512_add_epi64(
      _mm512_set1_epi64(static_cast<long long>(mix)),
      _mm512_set_epi64(56, 48, 40, 32, 24, 16, 8, 0));
  __m512i v[64];
  for (size_t i = 0; i < 64; ++i) {
    v[i] = ByteSwap(_mm512_loadu_si512(data + 64 * i));
    if constexpr (kEncrypt) v[i] = _mm512_xor_si512(v[i], MixOf(lane_mix, i));
  }
  Transpose(v);
  __m512i halves[2][32];
  __m512i* l = halves[0];
  __m512i* r = halves[1];
  for (int i = 0; i < 32; ++i) {
    l[i] = v[64 - kIp[i]];
    r[i] = v[64 - kIp[32 + i]];
  }
  for (int set = 0; set < 3; ++set) {
    for (int i = 0; i < 16; i += 2) {
      RoundSlices(r, l, keys);
      RoundSlices(l, r, keys + step);
      keys += 2 * step;
    }
    std::swap(l, r);
  }
  for (int n = 1; n <= 64; ++n) {
    const int src = kFp[n - 1];
    v[64 - n] = src <= 32 ? l[src - 1] : r[src - 33];
  }
  Transpose(v);
  for (size_t i = 0; i < 64; ++i) {
    if constexpr (!kEncrypt) v[i] = _mm512_xor_si512(v[i], MixOf(lane_mix, i));
    _mm512_storeu_si512(data + 64 * i, ByteSwap(v[i]));
  }
}

// ---- The 16-lane table kernel: the table kernel's rounds on 16 blocks
// at once, block j's halves in dword lane j of one vector for L and one
// for R.

/// x ^= (y >> n ^ x) & m, y ^= that << n: one step of the swap-move
/// network that computes IP (and, run backwards, FP) on the halves.
template <unsigned kShift, uint32_t kMask>
__attribute__((target("avx512f"), always_inline)) inline void SwapMove(
    __m512i& y, __m512i& x) {
  const __m512i t = _mm512_ternarylogic_epi32(
      _mm512_srli_epi32(y, kShift), x,
      _mm512_set1_epi32(static_cast<int>(kMask)), 0x28);  // (a ^ b) & c
  x = _mm512_xor_si512(x, t);
  y = _mm512_xor_si512(y, _mm512_slli_epi32(t, kShift));
}

/// acc ^ S/P box `box` at the six-bit group of `x` starting at bit kShift
/// (see DesTables::wide). vpermt2d reads only the index's low five bits,
/// so it looks up entries 0..31 unmasked; where bit 5 is set, a
/// zero-masked second lookup XORs on entries 32..63, stored XORed with
/// 0..31.
template <unsigned kShift>
__attribute__((target("avx512f"), always_inline)) inline __m512i WideLookup(
    __m512i acc, __m512i x, const __m512i* box) {
  const __m512i idx = kShift == 0 ? x : _mm512_srli_epi32(x, kShift);
  const __mmask16 bit5 =
      _mm512_test_epi32_mask(x, _mm512_set1_epi32(0x20 << kShift));
  return _mm512_ternarylogic_epi32(
      acc, _mm512_permutex2var_epi32(box[0], idx, box[1]),
      _mm512_maskz_permutex2var_epi32(bit5, box[2], idx, box[3]),
      0x96);  // a ^ b ^ c
}

/// l ^ f(r, k) on 16 blocks; the same expansion and box order as F.
__attribute__((target("avx512f"), always_inline)) inline __m512i WideRound(
    __m512i l, __m512i r, Des::RoundKey k, const __m512i (*box)[4]) {
  const __m512i u =
      _mm512_xor_si512(_mm512_rol_epi32(r, 5),
                       _mm512_set1_epi32(static_cast<int>(k.even)));
  const __m512i v =
      _mm512_xor_si512(_mm512_rol_epi32(r, 9),
                       _mm512_set1_epi32(static_cast<int>(k.odd)));
  __m512i a = WideLookup<0>(l, u, box[0]);
  __m512i b = WideLookup<0>(_mm512_setzero_si512(), v, box[1]);
  a = WideLookup<8>(a, u, box[6]);
  b = WideLookup<8>(b, v, box[7]);
  a = WideLookup<16>(a, u, box[4]);
  b = WideLookup<16>(b, v, box[5]);
  a = WideLookup<24>(a, u, box[2]);
  b = WideLookup<24>(b, v, box[3]);
  return _mm512_xor_si512(a, b);
}

/// `groups` passes of 16 blocks each at `data`: load big-endian, position
/// mix, IP, the 48 rounds of `keys`, FP, store.
template <bool kEncrypt>
__attribute__((target("avx512f"))) void CryptWide(uint8_t* data,
                                                  size_t groups, uint64_t mix,
                                                  const Des::RoundKey* keys) {
  const DesTables& t = Tabs();
  __m512i box[8][4];
  for (int b = 0; b < 8; ++b) {
    for (int q = 0; q < 4; ++q) {
      box[b][q] = _mm512_load_si512(t.wide[b] + 16 * q);
    }
  }
  // A block's high half is its odd dword once byte-swapped, its low half
  // the even one; the first vector holds blocks 0..7, the second 8..15.
  const __m512i high = _mm512_set_epi32(31, 29, 27, 25, 23, 21, 19, 17, 15,
                                        13, 11, 9, 7, 5, 3, 1);
  const __m512i low = _mm512_set_epi32(30, 28, 26, 24, 22, 20, 18, 16, 14,
                                       12, 10, 8, 6, 4, 2, 0);
  const __m512i first = _mm512_set_epi32(23, 7, 22, 6, 21, 5, 20, 4, 19, 3,
                                         18, 2, 17, 1, 16, 0);
  const __m512i second = _mm512_set_epi32(31, 15, 30, 14, 29, 13, 28, 12, 27,
                                          11, 26, 10, 25, 9, 24, 8);
  __m512i mix0 = _mm512_add_epi64(
      _mm512_set1_epi64(static_cast<long long>(mix)),
      _mm512_set_epi64(56, 48, 40, 32, 24, 16, 8, 0));
  const __m512i half = _mm512_set1_epi64(64);
  const __m512i whole = _mm512_set1_epi64(128);
  for (size_t g = 0; g < groups; ++g, data += 128) {
    const __m512i mix1 = _mm512_add_epi64(mix0, half);
    __m512i v0 = ByteSwap(_mm512_loadu_si512(data));
    __m512i v1 = ByteSwap(_mm512_loadu_si512(data + 64));
    if constexpr (kEncrypt) {
      v0 = _mm512_xor_si512(v0, mix0);
      v1 = _mm512_xor_si512(v1, mix1);
    }
    __m512i l = _mm512_permutex2var_epi32(v0, high, v1);
    __m512i r = _mm512_permutex2var_epi32(v0, low, v1);
    SwapMove<4, 0x0F0F0F0F>(l, r);
    SwapMove<16, 0x0000FFFF>(l, r);
    SwapMove<2, 0x33333333>(r, l);
    SwapMove<8, 0x00FF00FF>(r, l);
    SwapMove<1, 0x55555555>(l, r);
    for (size_t set = 0; set < 48; set += 16) {
      for (size_t i = set; i < set + 16; i += 2) {
        l = WideRound(l, r, keys[i], box);
        r = WideRound(r, l, keys[i + 1], box);
      }
      std::swap(l, r);
    }
    SwapMove<1, 0x55555555>(l, r);
    SwapMove<8, 0x00FF00FF>(r, l);
    SwapMove<2, 0x33333333>(r, l);
    SwapMove<16, 0x0000FFFF>(l, r);
    SwapMove<4, 0x0F0F0F0F>(l, r);
    v0 = _mm512_permutex2var_epi32(r, first, l);
    v1 = _mm512_permutex2var_epi32(r, second, l);
    if constexpr (!kEncrypt) {
      v0 = _mm512_xor_si512(v0, mix0);
      v1 = _mm512_xor_si512(v1, mix1);
    }
    _mm512_storeu_si512(data, ByteSwap(v0));
    _mm512_storeu_si512(data + 64, ByteSwap(v1));
    mix0 = _mm512_add_epi64(mix0, whole);
  }
}

#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#endif  // CSXA_BITSLICE_POSSIBLE

bool UseVectorKernels() {
#ifdef CSXA_BITSLICE_POSSIBLE
  static const bool use = CpuHasAvx512f() && !ForcePortableCrypto();
  return use;
#else
  return false;
#endif
}

/// Runs one pass, zero-padding a short one through a stack buffer.
template <bool kEncrypt>
void SlicedPass(uint8_t* data, size_t blocks, uint64_t mix,
                const uint32_t* keys, ptrdiff_t step) {
#ifdef CSXA_BITSLICE_POSSIBLE
  constexpr size_t kPassBytes = 8 * TripleDes::kSliceBlocks;
  if (blocks == TripleDes::kSliceBlocks) {
    CryptSlices<kEncrypt>(data, mix, keys, step);
    return;
  }
  uint8_t pad[kPassBytes] = {};
  std::memcpy(pad, data, 8 * blocks);
  CryptSlices<kEncrypt>(pad, mix, keys, step);
  std::memcpy(data, pad, 8 * blocks);
#else
  (void)data, (void)blocks, (void)mix, (void)keys, (void)step;
#endif
}

/// Runs `groups` 16-lane passes.
template <bool kEncrypt>
void WidePasses(uint8_t* data, size_t groups, uint64_t mix,
                const Des::RoundKey* keys) {
#ifdef CSXA_BITSLICE_POSSIBLE
  CryptWide<kEncrypt>(data, groups, mix, keys);
#else
  (void)data, (void)groups, (void)mix, (void)keys;
#endif
}

}  // namespace

Des::Des(const Block64& key) {
  uint64_t k = BytesToU64(key);
  uint64_t permuted = Permute(k, 64, kPc1, 56);
  uint32_t c = static_cast<uint32_t>(permuted >> 28) & 0x0FFFFFFFu;
  uint32_t d = static_cast<uint32_t>(permuted) & 0x0FFFFFFFu;
  for (int round = 0; round < 16; ++round) {
    c = Rotl28(c, kShifts[round]);
    d = Rotl28(d, kShifts[round]);
    uint64_t cd = (static_cast<uint64_t>(c) << 28) | d;
    encrypt_[round] = Pack(Permute(cd, 56, kPc2, 48));
    decrypt_[15 - round] = encrypt_[round];
  }
}

uint64_t Des::EncryptU64(uint64_t block) const {
  Crypt<1>(&block, encrypt_.data(), encrypt_.size());
  return block;
}

uint64_t Des::DecryptU64(uint64_t block) const {
  Crypt<1>(&block, decrypt_.data(), decrypt_.size());
  return block;
}

Block64 Des::EncryptBlock(const Block64& plain) const {
  return U64ToBytes(EncryptU64(BytesToU64(plain)));
}

Block64 Des::DecryptBlock(const Block64& cipher) const {
  return U64ToBytes(DecryptU64(BytesToU64(cipher)));
}

namespace {

Des SubKey(const TripleDes::Key& key, int index) {
  Block64 k;
  for (int i = 0; i < 8; ++i) k[i] = key[index * 8 + i];
  return Des(k);
}

}  // namespace

TripleDes::TripleDes(const Key& key) {
  // EDE: encrypt = E_K1, D_K2, E_K3; decrypt = D_K3, E_K2, D_K1.
  const Des des1 = SubKey(key, 0);
  const Des des2 = SubKey(key, 1);
  const Des des3 = SubKey(key, 2);
  auto place = [](std::array<Des::RoundKey, 48>& schedule, int pass,
                  const std::array<Des::RoundKey, 16>& keys) {
    std::copy(keys.begin(), keys.end(), schedule.begin() + 16 * pass);
  };
  place(encrypt_, 0, des1.encrypt_);
  place(encrypt_, 1, des2.decrypt_);
  place(encrypt_, 2, des3.encrypt_);
  place(decrypt_, 0, des3.decrypt_);
  place(decrypt_, 1, des2.encrypt_);
  place(decrypt_, 2, des1.decrypt_);
  if (!UseVectorKernels()) return;
  // Unpack each packed round key (see Pack) into one mask per key bit.
  for (size_t round = 0; round < encrypt_.size(); ++round) {
    const Des::RoundKey k = encrypt_[round];
    const uint32_t groups[8] = {k.even,       k.odd,       k.even >> 24,
                                k.odd >> 24,  k.even >> 16, k.odd >> 16,
                                k.even >> 8,  k.odd >> 8};
    for (size_t box = 0; box < 8; ++box) {
      for (size_t bit = 0; bit < 6; ++bit) {
        slice_keys_[48 * round + 6 * box + bit] =
            (groups[box] >> (5 - bit) & 1) != 0 ? ~0u : 0u;
      }
    }
  }
}

bool TripleDes::VectorKernelsAvailable() { return UseVectorKernels(); }

const char* TripleDesKernelName() {
  return UseVectorKernels() ? "bitsliced-avx512" : "table";
}

const char* TripleDesShortKernelName() {
  return UseVectorKernels() ? "table-avx512" : "table";
}

uint64_t TripleDes::EncryptU64(uint64_t block) const {
  Crypt<1>(&block, encrypt_.data(), encrypt_.size());
  return block;
}

uint64_t TripleDes::DecryptU64(uint64_t block) const {
  Crypt<1>(&block, decrypt_.data(), decrypt_.size());
  return block;
}

void TripleDes::EncryptLanes(Lanes& blocks) const {
  Crypt<kLanes>(blocks.data(), encrypt_.data(), encrypt_.size());
}

void TripleDes::DecryptLanes(Lanes& blocks) const {
  Crypt<kLanes>(blocks.data(), decrypt_.data(), decrypt_.size());
}

// Decryption runs the encryption schedule backwards (see the constructor).
void TripleDes::EncryptSliced(uint8_t* data, size_t blocks,
                              uint64_t mix) const {
  SlicedPass<true>(data, blocks, mix, slice_keys_.data(), 48);
}

void TripleDes::DecryptSliced(uint8_t* data, size_t blocks,
                              uint64_t mix) const {
  SlicedPass<false>(data, blocks, mix,
                    slice_keys_.data() + slice_keys_.size() - 48, -48);
}

void TripleDes::EncryptWide(uint8_t* data, size_t groups,
                            uint64_t mix) const {
  WidePasses<true>(data, groups, mix, encrypt_.data());
}

void TripleDes::DecryptWide(uint8_t* data, size_t groups,
                            uint64_t mix) const {
  WidePasses<false>(data, groups, mix, decrypt_.data());
}

Block64 TripleDes::EncryptBlock(const Block64& plain) const {
  return U64ToBytes(EncryptU64(BytesToU64(plain)));
}

Block64 TripleDes::DecryptBlock(const Block64& cipher) const {
  return U64ToBytes(DecryptU64(BytesToU64(cipher)));
}

}  // namespace csxa::crypto

#include "crypto/des.h"

#include <algorithm>
#include <utility>

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
struct DesTables {
  uint64_t ip[8][256];
  uint64_t fp[8][256];
  uint32_t sp[8][256];  // P(sbox output placed at its nibble)

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

Block64 TripleDes::EncryptBlock(const Block64& plain) const {
  return U64ToBytes(EncryptU64(BytesToU64(plain)));
}

Block64 TripleDes::DecryptBlock(const Block64& cipher) const {
  return U64ToBytes(DecryptU64(BytesToU64(cipher)));
}

}  // namespace csxa::crypto

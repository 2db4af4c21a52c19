#include "crypto/aes.h"

#include <cstring>

#include "crypto/cpu_features.h"

#if defined(__x86_64__) || defined(__i386__)
#define CSXA_AESNI_POSSIBLE 1
#include <immintrin.h>
#endif

namespace csxa::crypto {

namespace {

// ---- GF(2^8) tables, generated from the field definition (x^8 + x^4 +
// x^3 + x + 1) rather than transcribed, so a typo cannot silently weaken
// the cipher; the FIPS-197 known-answer test pins the result.

struct AesTables {
  uint8_t sbox[256];
  uint8_t inv_sbox[256];
  uint8_t mul2[256];

  AesTables() {
    // Exp/log over the generator 0x03.
    uint8_t exp[256], log[256] = {0};
    uint8_t x = 1;
    for (int i = 0; i < 256; ++i) {
      exp[i] = x;
      log[x] = static_cast<uint8_t>(i);
      uint8_t x2 = static_cast<uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
      x = static_cast<uint8_t>(x2 ^ x);  // multiply by 0x03
    }
    for (int i = 0; i < 256; ++i) {
      uint8_t a = static_cast<uint8_t>(i);
      uint8_t inv = (a == 0) ? 0 : exp[255 - log[a]];
      auto rotl8 = [](uint8_t v, int s) {
        return static_cast<uint8_t>((v << s) | (v >> (8 - s)));
      };
      sbox[i] = static_cast<uint8_t>(inv ^ rotl8(inv, 1) ^ rotl8(inv, 2) ^
                                     rotl8(inv, 3) ^ rotl8(inv, 4) ^ 0x63);
      mul2[i] = static_cast<uint8_t>((i << 1) ^ ((i & 0x80) ? 0x1b : 0));
    }
    for (int i = 0; i < 256; ++i) inv_sbox[sbox[i]] = static_cast<uint8_t>(i);
  }
};

const AesTables& Tables() {
  static const AesTables tables;
  return tables;
}

inline void AddRoundKey(uint8_t s[16], const uint8_t rk[16]) {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

// State layout follows the FIPS input order: state[r][c] = s[4c + r].
inline void ShiftRows(uint8_t s[16]) {
  uint8_t t[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) t[4 * c + r] = s[4 * ((c + r) % 4) + r];
  }
  std::memcpy(s, t, 16);
}

inline void InvShiftRows(uint8_t s[16]) {
  uint8_t t[16];
  for (int c = 0; c < 4; ++c) {
    for (int r = 0; r < 4; ++r) t[4 * ((c + r) % 4) + r] = s[4 * c + r];
  }
  std::memcpy(s, t, 16);
}

inline void MixColumns(const AesTables& t, uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    uint8_t x0 = t.mul2[a0], x1 = t.mul2[a1], x2 = t.mul2[a2],
            x3 = t.mul2[a3];
    col[0] = static_cast<uint8_t>(x0 ^ (x1 ^ a1) ^ a2 ^ a3);
    col[1] = static_cast<uint8_t>(a0 ^ x1 ^ (x2 ^ a2) ^ a3);
    col[2] = static_cast<uint8_t>(a0 ^ a1 ^ x2 ^ (x3 ^ a3));
    col[3] = static_cast<uint8_t>((x0 ^ a0) ^ a1 ^ a2 ^ x3);
  }
}

inline void InvMixColumn(const AesTables& t, uint8_t col[4]) {
  auto m = [&t](uint8_t a, int k) {
    uint8_t x2 = t.mul2[a], x4 = t.mul2[x2], x8 = t.mul2[x4];
    switch (k) {
      case 9: return static_cast<uint8_t>(x8 ^ a);
      case 11: return static_cast<uint8_t>(x8 ^ x2 ^ a);
      case 13: return static_cast<uint8_t>(x8 ^ x4 ^ a);
      default: return static_cast<uint8_t>(x8 ^ x4 ^ x2);  // 14
    }
  };
  uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
  col[0] = static_cast<uint8_t>(m(a0, 14) ^ m(a1, 11) ^ m(a2, 13) ^ m(a3, 9));
  col[1] = static_cast<uint8_t>(m(a0, 9) ^ m(a1, 14) ^ m(a2, 11) ^ m(a3, 13));
  col[2] = static_cast<uint8_t>(m(a0, 13) ^ m(a1, 9) ^ m(a2, 14) ^ m(a3, 11));
  col[3] = static_cast<uint8_t>(m(a0, 11) ^ m(a1, 13) ^ m(a2, 9) ^ m(a3, 14));
}

inline void InvMixColumns(const AesTables& t, uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) InvMixColumn(t, s + 4 * c);
}

/// 16-byte position tweak of absolute block index `block`: the big-endian
/// 64-bit byte position occupies bytes [8, 16), bytes [0, 8) are zero.
inline void XorTweak(uint8_t block16[16], uint64_t block) {
  const uint64_t pos = block * 16;
  for (int i = 0; i < 8; ++i) {
    block16[8 + i] ^= static_cast<uint8_t>(pos >> (56 - 8 * i));
  }
}

#ifdef CSXA_AESNI_POSSIBLE

__attribute__((target("aes,sse2"))) void ComputeInvRoundKeysNi(
    const std::array<std::array<uint8_t, 16>, 11>& rk,
    std::array<std::array<uint8_t, 16>, 11>* drk) {
  for (int r = 0; r < 11; ++r) {
    __m128i k = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk[r].data()));
    if (r != 0 && r != 10) k = _mm_aesimc_si128(k);
    _mm_storeu_si128(reinterpret_cast<__m128i*>((*drk)[r].data()), k);
  }
}

__attribute__((target("aes,sse2"))) inline __m128i TweakNi(uint64_t block) {
  // Memory bytes [8, 16) hold the big-endian byte position, which is the
  // byte-swapped position in the high lane of _mm_set_epi64x.
  return _mm_set_epi64x(
      static_cast<long long>(__builtin_bswap64(block * 16)), 0);
}

__attribute__((target("aes,sse2"))) void EncryptSegmentNi(
    const std::array<std::array<uint8_t, 16>, 11>& rk, uint8_t* data,
    size_t n, uint64_t first_block) {
  __m128i k[11];
  for (int r = 0; r < 11; ++r) {
    k[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk[r].data()));
  }
  __m128i* p = reinterpret_cast<__m128i*>(data);
  size_t blocks = n / 16;
  size_t i = 0;
  // Four blocks in flight to cover the aesenc latency.
  for (; i + 4 <= blocks; i += 4) {
    __m128i x0 = _mm_xor_si128(_mm_loadu_si128(p + i),
                               TweakNi(first_block + i));
    __m128i x1 = _mm_xor_si128(_mm_loadu_si128(p + i + 1),
                               TweakNi(first_block + i + 1));
    __m128i x2 = _mm_xor_si128(_mm_loadu_si128(p + i + 2),
                               TweakNi(first_block + i + 2));
    __m128i x3 = _mm_xor_si128(_mm_loadu_si128(p + i + 3),
                               TweakNi(first_block + i + 3));
    x0 = _mm_xor_si128(x0, k[0]);
    x1 = _mm_xor_si128(x1, k[0]);
    x2 = _mm_xor_si128(x2, k[0]);
    x3 = _mm_xor_si128(x3, k[0]);
    for (int r = 1; r < 10; ++r) {
      x0 = _mm_aesenc_si128(x0, k[r]);
      x1 = _mm_aesenc_si128(x1, k[r]);
      x2 = _mm_aesenc_si128(x2, k[r]);
      x3 = _mm_aesenc_si128(x3, k[r]);
    }
    _mm_storeu_si128(p + i, _mm_aesenclast_si128(x0, k[10]));
    _mm_storeu_si128(p + i + 1, _mm_aesenclast_si128(x1, k[10]));
    _mm_storeu_si128(p + i + 2, _mm_aesenclast_si128(x2, k[10]));
    _mm_storeu_si128(p + i + 3, _mm_aesenclast_si128(x3, k[10]));
  }
  for (; i < blocks; ++i) {
    __m128i x = _mm_xor_si128(_mm_loadu_si128(p + i),
                              TweakNi(first_block + i));
    x = _mm_xor_si128(x, k[0]);
    for (int r = 1; r < 10; ++r) x = _mm_aesenc_si128(x, k[r]);
    _mm_storeu_si128(p + i, _mm_aesenclast_si128(x, k[10]));
  }
}

__attribute__((target("aes,sse2"))) void DecryptSegmentNi(
    const std::array<std::array<uint8_t, 16>, 11>& drk, uint8_t* data,
    size_t n, uint64_t first_block) {
  __m128i k[11];
  for (int r = 0; r < 11; ++r) {
    k[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(drk[r].data()));
  }
  __m128i* p = reinterpret_cast<__m128i*>(data);
  size_t blocks = n / 16;
  size_t i = 0;
  for (; i + 4 <= blocks; i += 4) {
    __m128i x0 = _mm_xor_si128(_mm_loadu_si128(p + i), k[10]);
    __m128i x1 = _mm_xor_si128(_mm_loadu_si128(p + i + 1), k[10]);
    __m128i x2 = _mm_xor_si128(_mm_loadu_si128(p + i + 2), k[10]);
    __m128i x3 = _mm_xor_si128(_mm_loadu_si128(p + i + 3), k[10]);
    for (int r = 9; r > 0; --r) {
      x0 = _mm_aesdec_si128(x0, k[r]);
      x1 = _mm_aesdec_si128(x1, k[r]);
      x2 = _mm_aesdec_si128(x2, k[r]);
      x3 = _mm_aesdec_si128(x3, k[r]);
    }
    x0 = _mm_aesdeclast_si128(x0, k[0]);
    x1 = _mm_aesdeclast_si128(x1, k[0]);
    x2 = _mm_aesdeclast_si128(x2, k[0]);
    x3 = _mm_aesdeclast_si128(x3, k[0]);
    _mm_storeu_si128(p + i, _mm_xor_si128(x0, TweakNi(first_block + i)));
    _mm_storeu_si128(p + i + 1,
                     _mm_xor_si128(x1, TweakNi(first_block + i + 1)));
    _mm_storeu_si128(p + i + 2,
                     _mm_xor_si128(x2, TweakNi(first_block + i + 2)));
    _mm_storeu_si128(p + i + 3,
                     _mm_xor_si128(x3, TweakNi(first_block + i + 3)));
  }
  for (; i < blocks; ++i) {
    __m128i x = _mm_xor_si128(_mm_loadu_si128(p + i), k[10]);
    for (int r = 9; r > 0; --r) x = _mm_aesdec_si128(x, k[r]);
    x = _mm_aesdeclast_si128(x, k[0]);
    _mm_storeu_si128(p + i, _mm_xor_si128(x, TweakNi(first_block + i)));
  }
}

#endif  // CSXA_AESNI_POSSIBLE

bool UseAesNi() { return CpuHasAesNi() && !ForcePortableCrypto(); }

}  // namespace

bool Aes128::HardwareAvailable() {
#ifdef CSXA_AESNI_POSSIBLE
  return UseAesNi();
#else
  return false;
#endif
}

Aes128::Aes128(const Key& key) {
  const AesTables& t = Tables();
  // FIPS-197 key expansion: 44 words; rk_[r] holds words 4r..4r+3 as raw
  // bytes, which is exactly the byte order AddRoundKey consumes.
  uint8_t w[44][4];
  std::memcpy(w, key.data(), 16);
  uint8_t rcon = 0x01;
  for (int i = 4; i < 44; ++i) {
    uint8_t temp[4] = {w[i - 1][0], w[i - 1][1], w[i - 1][2], w[i - 1][3]};
    if (i % 4 == 0) {
      uint8_t first = temp[0];
      temp[0] = static_cast<uint8_t>(t.sbox[temp[1]] ^ rcon);
      temp[1] = t.sbox[temp[2]];
      temp[2] = t.sbox[temp[3]];
      temp[3] = t.sbox[first];
      rcon = t.mul2[rcon];
    }
    for (int b = 0; b < 4; ++b) w[i][b] = w[i - 4][b] ^ temp[b];
  }
  for (int r = 0; r < 11; ++r) std::memcpy(rk_[r].data(), w[4 * r], 16);
#ifdef CSXA_AESNI_POSSIBLE
  if (UseAesNi()) {
    ComputeInvRoundKeysNi(rk_, &drk_);
    have_drk_ = true;
  }
#endif
}

void Aes128::EncryptBlockPortable(const uint8_t in[16],
                                  uint8_t out[16]) const {
  const AesTables& t = Tables();
  uint8_t s[16];
  std::memcpy(s, in, 16);
  AddRoundKey(s, rk_[0].data());
  for (int round = 1; round < 10; ++round) {
    for (int i = 0; i < 16; ++i) s[i] = t.sbox[s[i]];
    ShiftRows(s);
    MixColumns(t, s);
    AddRoundKey(s, rk_[round].data());
  }
  for (int i = 0; i < 16; ++i) s[i] = t.sbox[s[i]];
  ShiftRows(s);
  AddRoundKey(s, rk_[10].data());
  std::memcpy(out, s, 16);
}

void Aes128::DecryptBlockPortable(const uint8_t in[16],
                                  uint8_t out[16]) const {
  const AesTables& t = Tables();
  uint8_t s[16];
  std::memcpy(s, in, 16);
  AddRoundKey(s, rk_[10].data());
  for (int round = 9; round > 0; --round) {
    InvShiftRows(s);
    for (int i = 0; i < 16; ++i) s[i] = t.inv_sbox[s[i]];
    AddRoundKey(s, rk_[round].data());
    InvMixColumns(t, s);
  }
  InvShiftRows(s);
  for (int i = 0; i < 16; ++i) s[i] = t.inv_sbox[s[i]];
  AddRoundKey(s, rk_[0].data());
  std::memcpy(out, s, 16);
}

void Aes128::EncryptSegmentTweaked(uint8_t* data, size_t n,
                                   uint64_t first_block) const {
#ifdef CSXA_AESNI_POSSIBLE
  if (UseAesNi()) {
    EncryptSegmentNi(rk_, data, n, first_block);
    return;
  }
#endif
  for (size_t off = 0; off + 16 <= n; off += 16) {
    XorTweak(data + off, first_block + off / 16);
    EncryptBlockPortable(data + off, data + off);
  }
}

void Aes128::DecryptSegmentTweaked(uint8_t* data, size_t n,
                                   uint64_t first_block) const {
#ifdef CSXA_AESNI_POSSIBLE
  if (UseAesNi() && have_drk_) {
    DecryptSegmentNi(drk_, data, n, first_block);
    return;
  }
#endif
  for (size_t off = 0; off + 16 <= n; off += 16) {
    DecryptBlockPortable(data + off, data + off);
    XorTweak(data + off, first_block + off / 16);
  }
}

}  // namespace csxa::crypto

#include "crypto/sha1.h"

#include <algorithm>
#include <cstring>

#include "crypto/cpu_features.h"

#if defined(__x86_64__) || defined(__i386__)
#define CSXA_SHANI_POSSIBLE 1
#include <immintrin.h>
#endif

namespace csxa::crypto {

namespace {

inline uint32_t Rotl(uint32_t v, int s) { return (v << s) | (v >> (32 - s)); }

void ProcessBlockPortable(std::array<uint32_t, 5>* state,
                          const uint8_t* block) {
  uint32_t w[80];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<uint32_t>(block[i * 4]) << 24) |
           (static_cast<uint32_t>(block[i * 4 + 1]) << 16) |
           (static_cast<uint32_t>(block[i * 4 + 2]) << 8) |
           static_cast<uint32_t>(block[i * 4 + 3]);
  }
  for (int i = 16; i < 80; ++i) {
    w[i] = Rotl(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }
  uint32_t a = (*state)[0], b = (*state)[1], c = (*state)[2],
           d = (*state)[3], e = (*state)[4];
  // Four branch-free 20-round stretches.
  for (int i = 0; i < 20; ++i) {
    uint32_t temp =
        Rotl(a, 5) + (d ^ (b & (c ^ d))) + e + 0x5A827999u + w[i];
    e = d; d = c; c = Rotl(b, 30); b = a; a = temp;
  }
  for (int i = 20; i < 40; ++i) {
    uint32_t temp = Rotl(a, 5) + (b ^ c ^ d) + e + 0x6ED9EBA1u + w[i];
    e = d; d = c; c = Rotl(b, 30); b = a; a = temp;
  }
  for (int i = 40; i < 60; ++i) {
    uint32_t temp =
        Rotl(a, 5) + ((b & c) | (d & (b | c))) + e + 0x8F1BBCDCu + w[i];
    e = d; d = c; c = Rotl(b, 30); b = a; a = temp;
  }
  for (int i = 60; i < 80; ++i) {
    uint32_t temp = Rotl(a, 5) + (b ^ c ^ d) + e + 0xCA62C1D6u + w[i];
    e = d; d = c; c = Rotl(b, 30); b = a; a = temp;
  }
  (*state)[0] += a;
  (*state)[1] += b;
  (*state)[2] += c;
  (*state)[3] += d;
  (*state)[4] += e;
}

#ifdef CSXA_SHANI_POSSIBLE

/// SHA-NI compression over `nblocks` consecutive 64-byte blocks (the
/// standard Intel SHA-extensions round sequence; the NIST vectors in
/// crypto_test pin it against the portable implementation).
__attribute__((target("sha,sse4.1"))) void ProcessBlocksShaNi(
    std::array<uint32_t, 5>* state, const uint8_t* data, size_t nblocks) {
  const __m128i kMask =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  __m128i abcd =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state->data()));
  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  __m128i e0 = _mm_set_epi32(static_cast<int>((*state)[4]), 0, 0, 0);
  __m128i e1;

  while (nblocks-- > 0) {
    const __m128i abcd_save = abcd;
    const __m128i e0_save = e0;
    const __m128i* in = reinterpret_cast<const __m128i*>(data);
    __m128i msg0 = _mm_shuffle_epi8(_mm_loadu_si128(in + 0), kMask);
    __m128i msg1 = _mm_shuffle_epi8(_mm_loadu_si128(in + 1), kMask);
    __m128i msg2 = _mm_shuffle_epi8(_mm_loadu_si128(in + 2), kMask);
    __m128i msg3 = _mm_shuffle_epi8(_mm_loadu_si128(in + 3), kMask);

    // Rounds 0-3.
    e0 = _mm_add_epi32(e0, msg0);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    // Rounds 4-7.
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    // Rounds 8-11.
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 12-15.
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 16-19.
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 20-23.
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 24-27.
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 28-31.
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 32-35.
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 1);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 36-39.
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 1);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 40-43.
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 44-47.
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 48-51.
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 52-55.
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 2);
    msg0 = _mm_sha1msg1_epu32(msg0, msg1);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 56-59.
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 2);
    msg1 = _mm_sha1msg1_epu32(msg1, msg2);
    msg0 = _mm_xor_si128(msg0, msg2);
    // Rounds 60-63.
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    msg0 = _mm_sha1msg2_epu32(msg0, msg3);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg2 = _mm_sha1msg1_epu32(msg2, msg3);
    msg1 = _mm_xor_si128(msg1, msg3);
    // Rounds 64-67.
    e0 = _mm_sha1nexte_epu32(e0, msg0);
    e1 = abcd;
    msg1 = _mm_sha1msg2_epu32(msg1, msg0);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    msg3 = _mm_sha1msg1_epu32(msg3, msg0);
    msg2 = _mm_xor_si128(msg2, msg0);
    // Rounds 68-71.
    e1 = _mm_sha1nexte_epu32(e1, msg1);
    e0 = abcd;
    msg2 = _mm_sha1msg2_epu32(msg2, msg1);
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);
    msg3 = _mm_xor_si128(msg3, msg1);
    // Rounds 72-75.
    e0 = _mm_sha1nexte_epu32(e0, msg2);
    e1 = abcd;
    msg3 = _mm_sha1msg2_epu32(msg3, msg2);
    abcd = _mm_sha1rnds4_epu32(abcd, e0, 3);
    // Rounds 76-79.
    e1 = _mm_sha1nexte_epu32(e1, msg3);
    e0 = abcd;
    abcd = _mm_sha1rnds4_epu32(abcd, e1, 3);

    e0 = _mm_sha1nexte_epu32(e0, e0_save);
    abcd = _mm_add_epi32(abcd, abcd_save);
    data += 64;
  }

  abcd = _mm_shuffle_epi32(abcd, 0x1B);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state->data()), abcd);
  (*state)[4] = static_cast<uint32_t>(_mm_extract_epi32(e0, 3));
}

#endif  // CSXA_SHANI_POSSIBLE

bool UseShaNi() {
  static const bool use = CpuHasShaNi() && !ForcePortableCrypto();
  return use;
}

}  // namespace

const char* Sha1::ImplementationName() {
#ifdef CSXA_SHANI_POSSIBLE
  if (UseShaNi()) return "sha-ni";
#endif
  return "portable";
}

bool Sha1::HardwareAccelerated() {
#ifdef CSXA_SHANI_POSSIBLE
  return UseShaNi();
#else
  return false;
#endif
}

void Sha1::Reset() {
  h_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  length_ = 0;
  buffered_ = 0;
  buffer_.fill(0);
}

void Sha1::ProcessBlocks(const uint8_t* data, size_t nblocks) {
#ifdef CSXA_SHANI_POSSIBLE
  if (UseShaNi()) {
    ProcessBlocksShaNi(&h_, data, nblocks);
    return;
  }
#endif
  for (size_t i = 0; i < nblocks; ++i) {
    ProcessBlockPortable(&h_, data + i * 64);
  }
}

void Sha1::Update(const uint8_t* data, size_t n) {
  length_ += n;
  if (buffered_ != 0) {
    size_t take = std::min(n, buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data, take);
    buffered_ += take;
    data += take;
    n -= take;
    if (buffered_ == buffer_.size()) {
      ProcessBlocks(buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Bulk path: whole blocks straight from the input, one dispatch.
  if (size_t blocks = n / 64; blocks > 0) {
    ProcessBlocks(data, blocks);
    data += blocks * 64;
    n -= blocks * 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data() + buffered_, data, n);
    buffered_ += n;
  }
}

Sha1Digest Sha1::Finish() {
  const uint64_t bit_length = length_ * 8;
  // Pad in place: 0x80, zero fill, then the 64-bit big-endian bit length
  // in the last 8 bytes. Update never leaves a full block buffered, so the
  // 0x80 always fits; when it lands past byte 55 the length spills into
  // one extra block.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    ProcessBlocks(buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_length >> (56 - 8 * i));
  }
  ProcessBlocks(buffer_.data(), 1);
  buffered_ = 0;

  Sha1Digest digest;
  for (int i = 0; i < 5; ++i) {
    digest[i * 4] = static_cast<uint8_t>(h_[i] >> 24);
    digest[i * 4 + 1] = static_cast<uint8_t>(h_[i] >> 16);
    digest[i * 4 + 2] = static_cast<uint8_t>(h_[i] >> 8);
    digest[i * 4 + 3] = static_cast<uint8_t>(h_[i]);
  }
  return digest;
}

Sha1Digest Sha1::Hash(const uint8_t* data, size_t n) {
  Sha1 hasher;
  hasher.Update(data, n);
  return hasher.Finish();
}

Sha1Digest Sha1::HashPair(const Sha1Digest& left, const Sha1Digest& right) {
  Sha1 hasher;
  hasher.Update(left.data(), left.size());
  hasher.Update(right.data(), right.size());
  return hasher.Finish();
}

}  // namespace csxa::crypto

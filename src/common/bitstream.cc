#include "common/bitstream.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bytes.h"

namespace csxa {

int BitsFor(uint64_t n) { return n <= 1 ? 0 : BitWidth(n - 1); }

int BitWidth(uint64_t v) { return static_cast<int>(std::bit_width(v)); }

void BitWriter::WriteBits(uint64_t value, int width) {
  bytes_.resize((bit_size_ + static_cast<size_t>(width) + 7) / 8, 0);
  while (width > 0) {
    // Fill the free low bits of the current byte with the next value bits.
    const int free = 8 - static_cast<int>(bit_size_ & 7);
    const int n = std::min(free, width);
    width -= n;
    const uint64_t part = (value >> width) & ((uint64_t{1} << n) - 1);
    bytes_[bit_size_ >> 3] |= static_cast<uint8_t>(part << (free - n));
    bit_size_ += static_cast<size_t>(n);
  }
}

void BitWriter::AlignToByte() {
  bit_size_ = (bit_size_ + 7) & ~size_t{7};
  bytes_.resize((bit_size_ + 7) / 8, 0);
}

void BitWriter::WriteAlignedBytes(const uint8_t* data, size_t n) {
  AlignToByte();
  bytes_.insert(bytes_.end(), data, data + n);
  bit_size_ += n * 8;
}

Status BitReader::ReadBits(int width, uint64_t* value) {
  if (static_cast<size_t>(width) > size_bits_ - pos_) {
    return Status::Corruption("BitReader: read past end of stream");
  }
  uint64_t v = 0;
  if (width > 0) {
    // The first byte's unread tail, whole bytes, then the head of the last
    // byte: no byte past the one holding the final bit is touched.
    const uint8_t* p = data_ + (pos_ >> 3);
    const int lead = static_cast<int>(pos_ & 7);
    int have = 8 - lead;
    v = *p++ & (0xFFu >> lead);
    if (have >= width) {
      v >>= have - width;
    } else {
      for (; have + 8 <= width; have += 8) v = (v << 8) | *p++;
      const int rest = width - have;
      if (rest > 0) v = (v << rest) | (*p >> (8 - rest));
    }
  }
  pos_ += static_cast<size_t>(width);
  *value = v;
  return Status::OK();
}

Status BitReader::ReadBytes(size_t n, std::string* out) {
  if (n > (size_bits_ - pos_) / 8) {
    return Status::Corruption("BitReader: byte read past end of stream");
  }
  const uint8_t* p = data_ + (pos_ >> 3);
  const int lead = static_cast<int>(pos_ & 7);
  if (lead == 0) {
    out->append(common::AsChars(p, n));
  } else {
    // Each byte straddles two stream bytes; p[n] still holds a read bit,
    // and nothing past it may be touched. One big-endian load of p[i..i+8)
    // shifted left by `lead` holds output bytes i..i+6 in its top 56 bits,
    // so whole words run while p[i + 7] <= p[n]; the tail goes bytewise.
    const size_t base = out->size();
    out->resize(base + n);
    char* dst = out->data() + base;
    size_t i = 0;
    for (; i + 7 <= n; i += 7) {
      uint64_t word;
      std::memcpy(&word, p + i, 8);
      if constexpr (std::endian::native == std::endian::little) {
        word = __builtin_bswap64(__builtin_bswap64(word) << lead);
      } else {
        word <<= lead;
      }
      std::memcpy(dst + i, &word, 7);
    }
    for (; i < n; ++i) {
      dst[i] = static_cast<char>(
          static_cast<uint8_t>((p[i] << lead) | (p[i + 1] >> (8 - lead))));
    }
  }
  pos_ += n * 8;
  return Status::OK();
}

Status BitReader::SeekTo(size_t bit_pos) {
  if (bit_pos > size_bits_) {
    return Status::OutOfRange("BitReader: seek past end of stream");
  }
  pos_ = bit_pos;
  return Status::OK();
}

}  // namespace csxa

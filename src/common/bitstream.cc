#include "common/bitstream.h"

#include <bit>
#include <cstring>

#include "common/bytes.h"

namespace csxa {

int BitsFor(uint64_t n) { return n <= 1 ? 0 : BitWidth(n - 1); }

int BitWidth(uint64_t v) { return static_cast<int>(std::bit_width(v)); }

void BitWriter::FlushBytes() {
  for (int shift = pending_ - 8; shift >= 0; shift -= 8) {
    bytes_.push_back(static_cast<uint8_t>(acc_ >> shift));
  }
  pending_ = 0;
}

void BitWriter::WriteBytes(const uint8_t* data, size_t n) {
  if ((pending_ & 7) == 0) {
    FlushBytes();
    bytes_.insert(bytes_.end(), data, data + n);
    return;
  }
  // Off a byte boundary: each stored word is the accumulator's pending
  // bits followed by the head of the next eight input bytes, whose tail
  // stays pending.
  const int keep = 64 - pending_;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    PutWord((acc_ << keep) | (word >> pending_));
    acc_ = word;
  }
  uint64_t tail = 0;
  for (size_t j = i; j < n; ++j) tail = (tail << 8) | data[j];
  WriteBits(tail, static_cast<int>(8 * (n - i)));
}

void BitWriter::AlignToByte() {
  WriteBits(0, (8 - (pending_ & 7)) & 7);
}

std::vector<uint8_t> BitWriter::TakeBytes() {
  AlignToByte();
  FlushBytes();
  acc_ = 0;
  std::vector<uint8_t> out = std::move(bytes_);
  bytes_.clear();
  return out;
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

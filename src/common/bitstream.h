#ifndef CSXA_COMMON_BITSTREAM_H_
#define CSXA_COMMON_BITSTREAM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace csxa {

/// Number of bits needed to represent values in [0, n-1]; BitsFor(0) and
/// BitsFor(1) are 0 (a single possible value needs no bits).
int BitsFor(uint64_t n);

/// Number of bits needed to represent the value v itself (>= 1 for v > 0).
int BitWidth(uint64_t v);

/// Append-only MSB-first bit writer backed by a byte vector.
///
/// The Skip index (Section 4 of the paper) packs per-element metadata with
/// field widths that shrink recursively; this writer provides the raw
/// bit-level substrate for that encoding. Bits gather in a 64-bit
/// accumulator that is stored one whole word at a time, and byte runs
/// (text payloads) go in eight bytes per step at any bit phase.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `width` bits of `value`, most significant bit first.
  /// width == 0 is a no-op. Requires width <= 64.
  void WriteBits(uint64_t value, int width) {
    if (width == 0) return;
    value &= ~uint64_t{0} >> (64 - width);
    const int free = 64 - pending_;
    if (width < free) {
      acc_ = (acc_ << width) | value;
      pending_ += width;
      return;
    }
    // Fill the accumulator's word and store it; the bits shifted past its
    // top are already stored or were never set. The split shift keeps
    // free == 64 (an empty accumulator) defined.
    const int rest = width - free;
    PutWord(((acc_ << (free - 1)) << 1) | (value >> rest));
    acc_ = value;
    pending_ = rest;
  }

  /// Appends a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Appends `n` whole bytes at the current (any) bit alignment.
  void WriteBytes(const uint8_t* data, size_t n);
  void WriteBytes(std::string_view s) {
    WriteBytes(common::AsBytes(s), s.size());
  }

  /// Pads with zero bits up to the next byte boundary.
  void AlignToByte();

  /// Reserves room for `bits` more bits.
  void Reserve(size_t bits) { bytes_.reserve(bytes_.size() + bits / 8 + 9); }

  /// Current length in bits.
  size_t bit_size() const {
    return bytes_.size() * 8 + static_cast<size_t>(pending_);
  }

  /// The finished buffer, zero-padded to a whole byte; leaves the writer
  /// empty.
  std::vector<uint8_t> TakeBytes();

 private:
  /// Stores the accumulator's whole pending bytes (pending_ % 8 == 0).
  void FlushBytes();
  void PutWord(uint64_t word) {
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    const size_t at = bytes_.size();
    bytes_.resize(at + 8);
    std::memcpy(bytes_.data() + at, &word, 8);
  }

  std::vector<uint8_t> bytes_;  ///< Stored bytes.
  uint64_t acc_ = 0;  ///< Pending bits in the low `pending_` bits.
  int pending_ = 0;   ///< 0..63.
};

/// MSB-first bit reader over a byte span, with random seek (needed by the
/// skip operation: SubtreeSize fields let the decoder jump over encrypted
/// subtrees without touching them). The repo's one bit decoder — the
/// navigator reads its event stream through it. ReadBits() and
/// ReadBytes() are checked and never touch a byte past the last bit they
/// return. ReadWordBits() loads the whole 8-byte word at the cursor's
/// byte: its caller must know those 8 bytes are inside the buffer *and*
/// inside the span it has verified (the navigator's held span), so a
/// byte the Merkle path has not vouched for is never touched.
class BitReader {
 public:
  BitReader() = default;
  BitReader(const uint8_t* data, size_t size_bytes)
      : data_(data), size_bits_(size_bytes * 8) {}

  /// Reads `width` (0..64) bits into *value (MSB first). width == 0 yields
  /// 0. Past the end of the stream: Corruption, nothing read.
  Status ReadBits(int width, uint64_t* value);

  /// Reads `width` (0..56) bits from one big-endian load of the 8 bytes
  /// starting at the cursor's byte. Unchecked: the caller guarantees those
  /// 8 bytes lie inside the buffer and inside its verified span.
  uint64_t ReadWordBits(int width) {
    uint64_t word;
    std::memcpy(&word, data_ + (pos_ >> 3), 8);
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap64(word);
    }
    // Drop the bits before the cursor, then keep the top `width`; the
    // split shift keeps width == 0 defined (it yields 0).
    const uint64_t v = ((word << (pos_ & 7)) >> 1) >> (63 - width);
    pos_ += static_cast<size_t>(width);
    return v;
  }

  /// Appends `n` whole bytes read at the current (any) bit alignment.
  /// Off a byte boundary it yields 7 bytes per 8-byte load and touches no
  /// byte past the one holding the last bit read. Past the end of the
  /// stream: Corruption, nothing read.
  Status ReadBytes(size_t n, std::string* out);

  /// Absolute bit position.
  size_t position() const { return pos_; }
  size_t size_bits() const { return size_bits_; }

  /// Seeks to an absolute bit offset (used by subtree skips and by the
  /// pending-predicate re-reads).
  Status SeekTo(size_t bit_pos);

 private:
  const uint8_t* data_ = nullptr;
  size_t size_bits_ = 0;
  size_t pos_ = 0;
};

}  // namespace csxa

#endif  // CSXA_COMMON_BITSTREAM_H_

#ifndef CSXA_COMMON_BITSTREAM_H_
#define CSXA_COMMON_BITSTREAM_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

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
/// bit-level substrate for that encoding.
class BitWriter {
 public:
  BitWriter() = default;

  /// Appends the low `width` bits of `value`, most significant bit first.
  /// width == 0 is a no-op. Requires width <= 64.
  void WriteBits(uint64_t value, int width);

  /// Appends a single bit.
  void WriteBit(bool bit) { WriteBits(bit ? 1 : 0, 1); }

  /// Pads with zero bits to the next byte boundary, then appends raw bytes.
  void WriteAlignedBytes(const uint8_t* data, size_t n);

  /// Pads with zero bits up to the next byte boundary.
  void AlignToByte();

  /// Current length in bits.
  size_t bit_size() const { return bit_size_; }

  /// Finished buffer (zero-padded to a whole byte).
  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }

 private:
  std::vector<uint8_t> bytes_;
  size_t bit_size_ = 0;
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

// Property tests of common/bitstream, the one bit decoder the navigator
// reads through: byte-at-a-time extraction and single-word loads must
// agree with a reference bit loop at every width and bit offset, the
// word-at-a-time writer must stay byte-identical to a reference bit writer
// under any mix of fields, bits, byte runs and alignment at every bit phase
// and round-trip through the reader, and reads past the end fail as
// Corruption without touching a byte beyond the buffer (the buffers here
// are exact-size heap vectors, so the sanitizer job catches any overread).
// The serializer's escape scan, which tests eight bytes per step, must
// agree with a per-character loop wherever the special characters fall.

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/bitstream.h"
#include "common/splitmix64.h"
#include "testing.h"
#include "xml/serializer.h"

namespace {

using namespace csxa;  // NOLINT

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> out(n);
  for (uint8_t& b : out) b = static_cast<uint8_t>(SplitMix64(&seed));
  return out;
}

/// Reference decoder: one bit at a time, MSB first.
uint64_t ReferenceBits(const std::vector<uint8_t>& data, size_t pos,
                       int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i, ++pos) {
    v = (v << 1) | ((data[pos >> 3] >> (7 - (pos & 7))) & 1);
  }
  return v;
}

/// Reference encoder: one bit at a time, MSB first.
class ReferenceWriter {
 public:
  void WriteBits(uint64_t value, int width) {
    for (int i = width - 1; i >= 0; --i) {
      if ((bits_ & 7) == 0) bytes_.push_back(0);
      if ((value >> i) & 1) {
        bytes_.back() |= static_cast<uint8_t>(0x80u >> (bits_ & 7));
      }
      ++bits_;
    }
  }
  void AlignToByte() { bits_ = (bits_ + 7) & ~size_t{7}; }
  size_t bit_size() const { return bits_; }
  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
  size_t bits_ = 0;
};

TEST(ReadBitsMatchesReferenceAtEveryWidthAndOffset) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const std::vector<uint8_t> data = RandomBytes(16, seed);
    for (size_t offset = 0; offset < 8; ++offset) {
      for (int width = 0; width <= 64; ++width) {
        // The buffer ends on the byte holding the last bit read.
        const size_t end = offset + static_cast<size_t>(width);
        const std::vector<uint8_t> exact(
            data.begin(),
            data.begin() + static_cast<std::ptrdiff_t>((end + 7) / 8));
        BitReader reader(exact.data(), exact.size());
        CHECK_OK(reader.SeekTo(offset));
        uint64_t v = 0;
        CHECK_OK(reader.ReadBits(width, &v));
        CHECK_EQ(v, ReferenceBits(data, offset, width));
        CHECK_EQ(reader.position(), end);
      }
    }
  }
}

TEST(WordReadsMatchReferenceAtEveryWidthAndOffset) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const std::vector<uint8_t> data = RandomBytes(16, seed);
    for (size_t offset = 0; offset < 8; ++offset) {
      for (int width = 0; width <= 56; ++width) {
        // The buffer ends with the 8-byte word at the cursor's byte, the
        // most ReadWordBits() may touch.
        const std::vector<uint8_t> word(data.begin(), data.begin() + 8);
        BitReader reader(word.data(), word.size());
        CHECK_OK(reader.SeekTo(offset));
        CHECK_EQ(reader.ReadWordBits(width),
                 ReferenceBits(data, offset, width));
        CHECK_EQ(reader.position(), offset + static_cast<size_t>(width));
      }
    }
  }
}

TEST(ReadBytesMatchesReferenceAtEveryOffsetAndLength) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::vector<uint8_t> data = RandomBytes(80, seed);
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t n = 0; n <= 70; ++n) {
        // The buffer ends on the byte holding the last bit read, so a word
        // load one byte too far reads past the heap block.
        const size_t end = offset + n * 8;
        const std::vector<uint8_t> exact(
            data.begin(),
            data.begin() + static_cast<std::ptrdiff_t>((end + 7) / 8));
        BitReader reader(exact.data(), exact.size());
        CHECK_OK(reader.SeekTo(offset));
        std::string bytes = "prefix";
        CHECK_OK(reader.ReadBytes(n, &bytes));
        std::string expected = "prefix";
        for (size_t i = 0; i < n; ++i) {
          expected.push_back(
              static_cast<char>(ReferenceBits(data, offset + i * 8, 8)));
        }
        CHECK(bytes == expected);
        CHECK_EQ(reader.position(), end);
      }
    }
  }
}

/// The per-character escape loop the word-at-a-time scan replaced.
std::string ReferenceEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

TEST(EscapedTextMatchesPerCharacterLoop) {
  // Every special character at every position mod 8, among near misses:
  // bytes one or two bits away from a special one, and the special ones
  // with the high bit set.
  const char kSpecials[] = {'<', '>', '&'};
  const char kNear[] = {';', '=', '?', '.', '\'', '%',
                        static_cast<char>(0xBC), static_cast<char>(0xA6)};
  for (size_t len = 0; len <= 40; ++len) {
    for (size_t at = 0; at < len; ++at) {
      for (char special : kSpecials) {
        std::string text(len, ' ');
        for (size_t i = 0; i < len; ++i) text[i] = kNear[i % 8];
        text[at] = special;
        std::string out = "head";
        xml::AppendEscapedText(text, &out);
        CHECK(out == "head" + ReferenceEscape(text));
      }
    }
  }
  uint64_t state = 11;
  for (int round = 0; round < 2000; ++round) {
    const size_t len = SplitMix64(&state) % 70;
    std::string text;
    for (size_t i = 0; i < len; ++i) {
      const uint64_t r = SplitMix64(&state);
      text.push_back(r % 4 == 0 ? kSpecials[(r >> 8) % 3]
                                : static_cast<char>(r >> 16));
    }
    std::string out;
    xml::AppendEscapedText(text, &out);
    CHECK(out == ReferenceEscape(text));
  }
}

TEST(SequentialReadsMatchReference) {
  const std::vector<uint8_t> data = RandomBytes(4096, 99);
  uint64_t state = 7;
  BitReader reader(data.data(), data.size());
  size_t pos = 0;
  while (true) {
    const int width = static_cast<int>(SplitMix64(&state) % 65);
    if (pos + static_cast<size_t>(width) > data.size() * 8) break;
    uint64_t v = 0;
    CHECK_OK(reader.ReadBits(width, &v));
    CHECK_EQ(v, ReferenceBits(data, pos, width));
    pos += static_cast<size_t>(width);
    // Bulk byte reads at whatever alignment the cursor landed on.
    const size_t n = SplitMix64(&state) % 24;
    if (pos + n * 8 > data.size() * 8) break;
    std::string bytes = "prefix";
    CHECK_OK(reader.ReadBytes(n, &bytes));
    CHECK_EQ(bytes.size(), 6 + n);
    for (size_t i = 0; i < n && i + 6 < bytes.size(); ++i) {
      CHECK_EQ(static_cast<uint64_t>(static_cast<uint8_t>(bytes[6 + i])),
               ReferenceBits(data, pos + i * 8, 8));
    }
    pos += n * 8;
    CHECK_EQ(reader.position(), pos);
  }
}

TEST(WriterIsByteIdenticalToReferenceAndRoundTrips) {
  uint64_t state = 42;
  BitWriter writer;
  ReferenceWriter reference;
  std::vector<std::pair<uint64_t, int>> fields;  // width -1: alignment
  for (int i = 0; i < 3000; ++i) {
    if (i % 97 == 0) {
      writer.AlignToByte();
      reference.AlignToByte();
      fields.emplace_back(0, -1);
      continue;
    }
    const int width = static_cast<int>(SplitMix64(&state) % 65);
    const uint64_t raw = SplitMix64(&state);  // high bits must be ignored
    writer.WriteBits(raw, width);
    reference.WriteBits(raw, width);
    fields.emplace_back(
        width == 64 ? raw : raw & ((uint64_t{1} << width) - 1), width);
  }
  const size_t bit_size = writer.bit_size();
  const std::vector<uint8_t> bytes = writer.TakeBytes();
  CHECK(bytes == reference.bytes());
  CHECK_EQ(bytes.size(), (bit_size + 7) / 8);

  BitReader reader(bytes.data(), bytes.size());
  for (const auto& [value, width] : fields) {
    if (width < 0) {
      CHECK_OK(reader.SeekTo((reader.position() + 7) / 8 * 8));
      continue;
    }
    uint64_t v = 0;
    CHECK_OK(reader.ReadBits(width, &v));
    CHECK_EQ(v, value);
  }
  CHECK_EQ(reader.position(), bit_size);
}

TEST(WriterMatchesReferenceOnMixedOpsAtEveryPhase) {
  // Random runs of WriteBits, WriteBit, byte runs and alignment, each run
  // started at every bit phase 0..7, against the one-bit-at-a-time
  // reference, then read back field by field.
  enum Op { kBits, kBit, kRun, kAlign };
  struct Field {
    Op op;
    uint64_t value;
    int width;
    std::vector<uint8_t> run;
  };
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    for (int phase = 0; phase < 8; ++phase) {
      uint64_t state = seed * 8 + static_cast<uint64_t>(phase);
      BitWriter writer;
      ReferenceWriter reference;
      std::vector<Field> fields;
      writer.WriteBits(0x55, phase);
      reference.WriteBits(0x55, phase);
      fields.push_back({kBits, 0x55 & ((1u << phase) - 1), phase, {}});
      for (int i = 0; i < 400; ++i) {
        const uint64_t pick = SplitMix64(&state) % 16;
        if (pick < 7) {
          const int width = static_cast<int>(SplitMix64(&state) % 65);
          const uint64_t raw = SplitMix64(&state);
          writer.WriteBits(raw, width);
          reference.WriteBits(raw, width);
          fields.push_back(
              {kBits, width == 64 ? raw : raw & ((uint64_t{1} << width) - 1),
               width, {}});
        } else if (pick < 11) {
          const bool bit = SplitMix64(&state) & 1;
          writer.WriteBit(bit);
          reference.WriteBits(bit, 1);
          fields.push_back({kBit, bit, 1, {}});
        } else if (pick < 15) {
          const size_t n = SplitMix64(&state) % 40;
          std::vector<uint8_t> run = RandomBytes(n, SplitMix64(&state));
          writer.WriteBytes(run.data(), run.size());
          for (uint8_t b : run) reference.WriteBits(b, 8);
          fields.push_back({kRun, 0, 0, std::move(run)});
        } else {
          writer.AlignToByte();
          reference.AlignToByte();
          fields.push_back({kAlign, 0, 0, {}});
        }
        CHECK_EQ(writer.bit_size(), reference.bit_size());
      }
      const size_t bit_size = writer.bit_size();
      const std::vector<uint8_t> bytes = writer.TakeBytes();
      CHECK(bytes == reference.bytes());
      CHECK_EQ(bytes.size(), (bit_size + 7) / 8);
      CHECK_EQ(writer.bit_size(), size_t{0});

      BitReader reader(bytes.data(), bytes.size());
      for (const Field& f : fields) {
        if (f.op == kAlign) {
          CHECK_OK(reader.SeekTo((reader.position() + 7) / 8 * 8));
        } else if (f.op == kRun) {
          std::string got;
          CHECK_OK(reader.ReadBytes(f.run.size(), &got));
          CHECK(std::vector<uint8_t>(got.begin(), got.end()) == f.run);
        } else {
          uint64_t v = 0;
          CHECK_OK(reader.ReadBits(f.width, &v));
          CHECK_EQ(v, f.value);
        }
      }
      CHECK_EQ(reader.position(), bit_size);
    }
  }
}

TEST(OverlongReadFailsAsCorruptionWithoutReading) {
  const std::vector<uint8_t> data = RandomBytes(5, 3);  // 40 bits
  for (size_t offset = 0; offset < 8; ++offset) {
    BitReader reader(data.data(), data.size());
    CHECK_OK(reader.SeekTo(offset));
    const int left = 40 - static_cast<int>(offset);
    for (int width = left + 1; width <= 64; ++width) {
      uint64_t v = 0xdead;
      Status st = reader.ReadBits(width, &v);
      CHECK(st.code() == StatusCode::kCorruption);
      CHECK_EQ(v, uint64_t{0xdead});
      CHECK_EQ(reader.position(), offset);
    }
    std::string out;
    Status st = reader.ReadBytes(static_cast<size_t>(left) / 8 + 1, &out);
    CHECK(st.code() == StatusCode::kCorruption);
    CHECK(out.empty());
    CHECK_EQ(reader.position(), offset);
    // The exact remainder still reads, up to the last bit of the buffer.
    uint64_t v = 0;
    CHECK_OK(reader.ReadBits(left, &v));
    CHECK_EQ(v, ReferenceBits(data, offset, left));
    CHECK(reader.ReadBits(1, &v).code() == StatusCode::kCorruption);
  }
  BitReader empty(nullptr, 0);
  uint64_t v = 0;
  CHECK_OK(empty.ReadBits(0, &v));
  CHECK(empty.ReadBits(1, &v).code() == StatusCode::kCorruption);
}

}  // namespace

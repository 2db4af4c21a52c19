#include "index/encoded_document.h"

#include <cstring>

namespace csxa::index {

const char* VariantName(Variant variant) {
  switch (variant) {
    case Variant::kNc:
      return "NC";
    case Variant::kTc:
      return "TC";
    case Variant::kTcs:
      return "TCS";
    case Variant::kTcsb:
      return "TCSB";
    case Variant::kTcsbr:
      return "TCSBR";
  }
  return "?";
}

Result<HeaderInfo> ParseHeaderInfo(const uint8_t* data, size_t size) {
  if (size < format::kMagicSize + 1) {
    return Status::Corruption("encoded document too short");
  }
  if (std::memcmp(data, format::kMagic, format::kMagicSize) != 0) {
    return Status::Corruption("bad magic (not a CSXA encoded document)");
  }
  HeaderInfo info;
  uint8_t raw_variant = data[format::kMagicSize];
  if (raw_variant < 1 || raw_variant > 4) {
    return Status::Corruption("unknown encoding variant");
  }
  info.variant = static_cast<Variant>(raw_variant);
  size_t pos = format::kMagicSize + 1;
  size_t dict_bytes = 0;
  auto dict =
      xml::TagDictionary::Deserialize(data + pos, size - pos, &dict_bytes);
  if (!dict.ok()) return dict.status();
  info.dictionary = dict.take();
  pos += dict_bytes;
  if (pos + 8 > size) {
    return Status::Corruption("encoded document header truncated");
  }
  uint64_t root_bits = 0;
  for (int i = 0; i < 8; ++i) root_bits = (root_bits << 8) | data[pos + i];
  info.root_size_bits = root_bits;
  info.stream_offset = pos + 8;
  return info;
}

}  // namespace csxa::index

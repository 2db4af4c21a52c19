#include "xml/serializer.h"

#include <bit>
#include <cstdint>
#include <cstring>

namespace csxa::xml {

namespace {

constexpr uint64_t kOnes = 0x0101010101010101ull;
constexpr uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;

/// High bit of each byte of `x` that is zero, and no other bit. Exact per
/// byte: (x & 0x7F) + 0x7F never carries into the next byte.
uint64_t ZeroBytes(uint64_t x) { return ~(((x & kLow7) + kLow7) | x | kLow7); }

/// High bit of each byte of `w` that is `<`, `>` or `&`.
uint64_t SpecialBytes(uint64_t w) {
  return ZeroBytes(w ^ (kOnes * '<')) | ZeroBytes(w ^ (kOnes * '>')) |
         ZeroBytes(w ^ (kOnes * '&'));
}

const char* EntityFor(char c) {
  switch (c) {
    case '<':
      return "&lt;";
    case '>':
      return "&gt;";
    case '&':
      return "&amp;";
    default:
      return nullptr;
  }
}

}  // namespace

void AppendEscapedText(std::string_view text, std::string* out) {
  const char* data = text.data();
  const size_t n = text.size();
  size_t run = 0;  // Start of the verbatim run not yet appended.
  auto escape = [&](size_t at, const char* entity) {
    out->append(data + run, at - run);
    out->append(entity);
    run = at + 1;
  };
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, data + i, 8);
    // Byte k of the text becomes bits [8k, 8k + 8), so the lowest flag
    // marks the first special character.
    if constexpr (std::endian::native == std::endian::big) {
      w = __builtin_bswap64(w);
    }
    for (uint64_t m = SpecialBytes(w); m != 0; m &= m - 1) {
      const size_t at = i + static_cast<size_t>(std::countr_zero(m)) / 8;
      escape(at, EntityFor(data[at]));
    }
  }
  for (; i < n; ++i) {
    if (const char* entity = EntityFor(data[i])) escape(i, entity);
  }
  out->append(data + run, n - run);
}

void SerializingHandler::OnOpen(const std::string& tag, int depth) {
  Feed({EventKind::kOpen, tag}, depth);
}

void SerializingHandler::OnValue(const std::string& value, int depth) {
  Feed({EventKind::kValue, value}, depth);
}

void SerializingHandler::OnClose(const std::string& tag, int depth) {
  Feed({EventKind::kClose, tag}, depth);
}

void SerializingHandler::OnValueView(std::string_view value, int depth) {
  Feed({EventKind::kValue, value}, depth);
}

void SerializingHandler::Feed(const EventView& event, int) {
  switch (event.kind) {
    case EventKind::kOpen:
      out_.push_back('<');
      out_.append(event.text);
      out_.push_back('>');
      break;
    case EventKind::kValue:
      AppendEscapedText(event.text, &out_);
      break;
    case EventKind::kClose:
      out_.append("</");
      out_.append(event.text);
      out_.push_back('>');
      break;
  }
}

}  // namespace csxa::xml

#include "xml/sax_parser.h"

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

namespace csxa::xml {

namespace {

/// Character classes of the "C" locale's isalpha/isalnum/isspace plus the
/// XML name punctuation, one table lookup per character.
enum : uint8_t { kNameStart = 1, kNameChar = 2, kSpace = 4 };

constexpr std::array<uint8_t, 256> kCharClass = [] {
  std::array<uint8_t, 256> t{};
  for (int c = 0; c < 256; ++c) {
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
    const bool digit = c >= '0' && c <= '9';
    if (alpha || c == '_' || c == ':') t[c] |= kNameStart;
    if (alpha || digit || c == '_' || c == ':' || c == '-' || c == '.') {
      t[c] |= kNameChar;
    }
    if (c == ' ' || (c >= '\t' && c <= '\r')) t[c] |= kSpace;
  }
  return t;
}();

bool Is(char c, uint8_t cls) {
  return (kCharClass[static_cast<unsigned char>(c)] & cls) != 0;
}

bool IsSpaceOnly(std::string_view s) {
  for (char c : s) {
    if (!Is(c, kSpace)) return false;
  }
  return true;
}

/// Decodes the five predefined entities of `raw` into `out` (replacing its
/// contents); unknown entities are kept verbatim.
void DecodeEntities(std::string_view raw, std::string* out) {
  out->clear();
  size_t i = 0;
  while (i < raw.size()) {
    const size_t amp = raw.find('&', i);
    if (amp == std::string_view::npos) {
      out->append(raw.substr(i));
      break;
    }
    out->append(raw.substr(i, amp - i));
    i = amp;
    auto tryMatch = [&](std::string_view ent, char repl) {
      if (raw.substr(i, ent.size()) == ent) {
        out->push_back(repl);
        i += ent.size();
        return true;
      }
      return false;
    };
    if (tryMatch("&lt;", '<') || tryMatch("&gt;", '>') ||
        tryMatch("&amp;", '&') || tryMatch("&quot;", '"') ||
        tryMatch("&apos;", '\'')) {
      continue;
    }
    out->push_back(raw[i++]);
  }
}

/// The text run pending between two tags: a view of the input while it is
/// one piece, joined in `joined_` once a comment, PI or CDATA splits it.
class PendingText {
 public:
  void Append(std::string_view piece) {
    if (piece.empty()) return;
    if (text_.empty()) {
      text_ = piece;
      return;
    }
    if (text_.data() != joined_.data()) joined_.assign(text_);
    joined_.append(piece);
    text_ = joined_;
  }
  std::string_view text() const { return text_; }
  void Clear() { text_ = {}; }

 private:
  std::string_view text_;
  std::string joined_;
};

/// DOM builder used by ParseToDom.
class DomBuilder : public EventHandler {
 public:
  void OnOpen(const std::string& tag, int) override {
    if (current_ == nullptr) {
      if (root_ != nullptr) {
        multiple_roots_ = true;
        return;
      }
      root_ = Node::Element(tag);
      current_ = root_.get();
    } else {
      current_ = current_->AppendElement(tag);
    }
  }
  void OnValue(const std::string& value, int) override {
    if (current_ != nullptr) current_->AppendText(value);
  }
  void OnClose(const std::string&, int) override {
    if (current_ != nullptr) current_ = current_->parent();
  }

  std::unique_ptr<Node> TakeRoot() { return std::move(root_); }
  bool multiple_roots() const { return multiple_roots_; }

 private:
  std::unique_ptr<Node> root_;
  Node* current_ = nullptr;
  bool multiple_roots_ = false;
};

}  // namespace

Status SaxParser::Parse(std::string_view input, EventHandler* handler) {
  // Open tags are views into the input; an event's tag is copied into
  // one reused buffer, its text decoded into another.
  std::vector<std::string_view> open_tags;
  size_t i = 0;
  const size_t n = input.size();
  PendingText pending;
  std::string tag_buf;
  std::string value;

  auto flushText = [&]() {
    const std::string_view text = pending.text();
    if (!text.empty() && !open_tags.empty() && !IsSpaceOnly(text)) {
      DecodeEntities(text, &value);
      handler->OnValue(value, static_cast<int>(open_tags.size()) + 1);
    }
    pending.Clear();
  };

  while (i < n) {
    if (input[i] != '<') {
      const void* lt = std::memchr(input.data() + i, '<', n - i);
      const size_t end =
          lt == nullptr ? n : static_cast<const char*>(lt) - input.data();
      pending.Append(input.substr(i, end - i));
      i = end;
      continue;
    }
    // A markup construct starts here.
    if (i + 1 >= n) return Status::ParseError("dangling '<' at end of input");
    char next = input[i + 1];
    if (next == '?') {  // XML declaration / processing instruction
      size_t end = input.find("?>", i + 2);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated processing instruction");
      }
      i = end + 2;
      continue;
    }
    if (next == '!') {
      if (input.substr(i, 4) == "<!--") {  // comment
        size_t end = input.find("-->", i + 4);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated comment");
        }
        i = end + 3;
        continue;
      }
      if (input.substr(i, 9) == "<![CDATA[") {
        size_t end = input.find("]]>", i + 9);
        if (end == std::string_view::npos) {
          return Status::ParseError("unterminated CDATA section");
        }
        pending.Append(input.substr(i + 9, end - (i + 9)));
        i = end + 3;
        continue;
      }
      // DOCTYPE or other declaration: skip to matching '>'.
      size_t end = input.find('>', i + 2);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated '<!' declaration");
      }
      i = end + 1;
      continue;
    }
    if (next == '/') {  // closing tag
      flushText();
      size_t j = i + 2;
      size_t start = j;
      while (j < n && Is(input[j], kNameChar)) ++j;
      const std::string_view tag = input.substr(start, j - start);
      while (j < n && Is(input[j], kSpace)) ++j;
      if (j >= n || input[j] != '>') {
        return Status::ParseError("malformed closing tag </" +
                                  std::string(tag));
      }
      if (open_tags.empty() || open_tags.back() != tag) {
        return Status::ParseError(
            "mismatched closing tag </" + std::string(tag) + ">, expected </" +
            std::string(open_tags.empty() ? "?" : open_tags.back()) + ">");
      }
      tag_buf.assign(tag);
      handler->OnClose(tag_buf, static_cast<int>(open_tags.size()));
      open_tags.pop_back();
      i = j + 1;
      continue;
    }
    // Opening tag.
    if (!Is(next, kNameStart)) {
      return Status::ParseError("invalid character after '<'");
    }
    flushText();
    size_t j = i + 1;
    size_t start = j;
    while (j < n && Is(input[j], kNameChar)) ++j;
    const std::string_view tag = input.substr(start, j - start);
    // Skip attributes (quoted values may contain '>').
    bool self_closing = false;
    while (j < n) {
      char c = input[j];
      if (c == '>') break;
      if (c == '/' && j + 1 < n && input[j + 1] == '>') {
        self_closing = true;
        j += 1;
        break;
      }
      if (c == '"' || c == '\'') {
        size_t close = input.find(c, j + 1);
        if (close == std::string_view::npos) {
          return Status::ParseError("unterminated attribute value in <" +
                                    std::string(tag));
        }
        j = close + 1;
        continue;
      }
      ++j;
    }
    if (j >= n || input[j] != '>') {
      return Status::ParseError("unterminated opening tag <" +
                                std::string(tag));
    }
    open_tags.push_back(tag);
    tag_buf.assign(tag);
    handler->OnOpen(tag_buf, static_cast<int>(open_tags.size()));
    if (self_closing) {
      handler->OnClose(tag_buf, static_cast<int>(open_tags.size()));
      open_tags.pop_back();
    }
    i = j + 1;
  }
  if (!open_tags.empty()) {
    return Status::ParseError("unclosed element <" +
                              std::string(open_tags.back()) + ">");
  }
  return Status::OK();
}

Result<std::unique_ptr<Node>> SaxParser::ParseToDom(std::string_view input) {
  DomBuilder builder;
  CSXA_RETURN_NOT_OK(Parse(input, &builder));
  if (builder.multiple_roots()) {
    return Status::ParseError("document has multiple root elements");
  }
  std::unique_ptr<Node> root = builder.TakeRoot();
  if (root == nullptr) {
    return Status::ParseError("document has no root element");
  }
  return root;
}

}  // namespace csxa::xml

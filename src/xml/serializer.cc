#include "xml/serializer.h"

namespace csxa::xml {

void AppendEscapedText(std::string_view text, std::string* out) {
  // Copies the runs between special characters in bulk.
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char* entity = nullptr;
    switch (text[i]) {
      case '<':
        entity = "&lt;";
        break;
      case '>':
        entity = "&gt;";
        break;
      case '&':
        entity = "&amp;";
        break;
      default:
        continue;
    }
    out->append(text.data() + run, i - run);
    out->append(entity);
    run = i + 1;
  }
  out->append(text.data() + run, text.size() - run);
}

namespace {

void SerializeInto(const Node& node, int indent, int level, std::string* out) {
  auto pad = [&](int lvl) {
    if (indent >= 0) out->append(static_cast<size_t>(indent) * lvl, ' ');
  };
  if (node.is_text()) {
    pad(level);
    AppendEscapedText(node.value(), out);
    if (indent >= 0) out->push_back('\n');
    return;
  }
  pad(level);
  out->push_back('<');
  out->append(node.tag());
  if (node.children().empty()) {
    out->append("/>");
    if (indent >= 0) out->push_back('\n');
    return;
  }
  out->push_back('>');
  if (indent >= 0) out->push_back('\n');
  for (const auto& child : node.children()) {
    SerializeInto(*child, indent, level + 1, out);
  }
  pad(level);
  out->append("</");
  out->append(node.tag());
  out->push_back('>');
  if (indent >= 0) out->push_back('\n');
}

}  // namespace

std::string Serialize(const Node& node, int indent) {
  std::string out;
  SerializeInto(node, indent, 0, &out);
  return out;
}

void SerializingHandler::OnOpen(const std::string& tag, int) {
  out_.push_back('<');
  out_.append(tag);
  out_.push_back('>');
}

void SerializingHandler::OnValue(const std::string& value, int) {
  AppendEscapedText(value, &out_);
}

void SerializingHandler::OnClose(const std::string& tag, int) {
  out_.append("</");
  out_.append(tag);
  out_.push_back('>');
}

void SerializingHandler::Feed(const Event& event, int depth) {
  switch (event.kind) {
    case EventKind::kOpen:
      OnOpen(event.text, depth);
      break;
    case EventKind::kValue:
      OnValue(event.text, depth);
      break;
    case EventKind::kClose:
      OnClose(event.text, depth);
      break;
  }
}

}  // namespace csxa::xml

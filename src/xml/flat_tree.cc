#include "xml/flat_tree.h"

#include "xml/sax_parser.h"

namespace csxa::xml {

/// Appends records as elements close. Fed by the SAX parser (as an
/// EventHandler) or by an iterative DOM walk.
class FlatTreeBuilder : public EventHandler {
 public:
  void OnOpen(const std::string& tag, int) override {
    if (root_closed_) {
      multiple_roots_ = true;
      return;
    }
    Open(tag);
  }
  void OnValue(const std::string& value, int) override {
    if (!root_closed_) Text(value);
  }
  void OnClose(const std::string&, int) override {
    if (!root_closed_) Close();
  }

  /// Sizes the pools for `input_bytes` of XML: text never outgrows the
  /// input, and a record takes at least a few bytes of markup.
  void Reserve(size_t input_bytes) {
    tree_.text_.reserve(input_bytes);
    tree_.records_.reserve(input_bytes / 8);
  }

  void Open(std::string_view tag) {
    open_.push_back(
        {tree_.dictionary_.Intern(tag),
         static_cast<uint32_t>(tree_.records_.size())});
  }

  void Text(std::string_view value) {
    if (!Room(value.size(), 0)) return;
    const auto self = static_cast<uint32_t>(tree_.records_.size());
    tree_.records_.push_back({FlatTree::kText, FlatTree::kNoParent, self,
                              static_cast<uint32_t>(tree_.text_.size()),
                              static_cast<uint32_t>(value.size())});
    tree_.text_.append(value);
  }

  void Close() {
    const Frame frame = open_.back();
    open_.pop_back();
    if (open_.empty()) root_closed_ = true;
    // Every tag below this element is interned by now, so the dictionary's
    // current size bounds the bitset.
    const size_t words = (tree_.dictionary_.size() + 63) / 64;
    if (!Room(0, words)) return;
    std::vector<FlatTree::Record>& records = tree_.records_;
    std::vector<uint64_t>& desc = tree_.desc_;
    const auto self = static_cast<uint32_t>(records.size());
    size_t offset = 0;
    bool internal = false;
    // Children from last to first: the last ends just before `self`, and
    // each one's previous sibling ends just before its `first`.
    for (uint32_t end = self; end > frame.first; end = records[end - 1].first) {
      FlatTree::Record& child = records[end - 1];
      child.parent = self;
      if (child.is_text()) continue;
      if (!internal) {
        internal = true;
        offset = desc.size();
        desc.resize(offset + words, 0);
      }
      uint64_t* bits = desc.data() + offset;
      bits[child.tag / 64] |= uint64_t{1} << (63 - child.tag % 64);
      const uint64_t* below = desc.data() + child.offset;
      for (uint32_t w = 0; w < child.length; ++w) bits[w] |= below[w];
    }
    records.push_back({frame.tag, FlatTree::kNoParent, frame.first,
                       static_cast<uint32_t>(offset),
                       static_cast<uint32_t>(internal ? words : 0)});
  }

  Result<FlatTree> Finish() {
    CSXA_RETURN_NOT_OK(status_);
    if (multiple_roots_) {
      return Status::ParseError("document has multiple root elements");
    }
    if (tree_.records_.empty()) {
      return Status::ParseError("document has no root element");
    }
    return std::move(tree_);
  }

 private:
  struct Frame {
    TagId tag;
    uint32_t first;
  };

  // The encoder's emission stack marks entries with bit 31, so record
  // indexes stay below it; pool offsets must fit 32 bits.
  static constexpr size_t kMaxRecords = size_t{1} << 31;
  static constexpr size_t kMaxPool = UINT32_MAX;

  /// Whether one more record, `text` more text bytes and `words` more
  /// bitset words fit; records the failure once if not.
  bool Room(size_t text, size_t words) {
    if (!status_.ok()) return false;
    if (tree_.records_.size() + 1 < kMaxRecords &&
        tree_.text_.size() + text <= kMaxPool &&
        tree_.desc_.size() + words <= kMaxPool) {
      return true;
    }
    status_ = Status::InvalidArgument(
        "document too large for 32-bit flat tree indexes");
    return false;
  }

  FlatTree tree_;
  std::vector<Frame> open_;
  bool root_closed_ = false;
  bool multiple_roots_ = false;
  Status status_ = Status::OK();
};

Result<FlatTree> FlatTree::Parse(std::string_view xml) {
  FlatTreeBuilder builder;
  builder.Reserve(xml.size());
  CSXA_RETURN_NOT_OK(SaxParser::Parse(xml, &builder));
  return builder.Finish();
}

Result<FlatTree> FlatTree::Flatten(const Node& root) {
  if (!root.is_element()) {
    return Status::InvalidArgument("document root must be an element");
  }
  struct Pos {
    const Node* node;
    size_t next;  // Index of the next child to visit.
  };
  FlatTreeBuilder builder;
  std::vector<Pos> stack;
  builder.Open(root.tag());
  stack.push_back({&root, 0});
  while (!stack.empty()) {
    const Node* node = stack.back().node;
    if (stack.back().next == node->children().size()) {
      builder.Close();
      stack.pop_back();
      continue;
    }
    const Node& child = *node->children()[stack.back().next++];
    if (child.is_text()) {
      builder.Text(child.value());
    } else {
      builder.Open(child.tag());
      stack.push_back({&child, 0});
    }
  }
  return builder.Finish();
}

}  // namespace csxa::xml

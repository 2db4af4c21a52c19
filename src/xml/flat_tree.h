#ifndef CSXA_XML_FLAT_TREE_H_
#define CSXA_XML_FLAT_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "xml/node.h"
#include "xml/tag_dictionary.h"

namespace csxa::xml {

/// A document as one post-order arena: every element and text node is one
/// fixed-size record, appended when it closes. Children therefore precede
/// their parent, a node's subtree is the contiguous range [first, self],
/// its last child sits just before it and each child's previous sibling
/// just before that child's `first`. The root is the last record.
///
/// Text lives in one pool. Each internal element carries the set of tags
/// of its strict descendants as a bitset in a second pool: tag t is bit
/// 63 - t % 64 of word t / 64 (most significant first, the order the
/// Skip index writes bitmaps in), over as many words as the dictionary
/// needed when the element closed. Tags are interned in document order
/// of their first open, so ids match a pre-order walk of the DOM.
///
/// Everything is built iteratively: no step recurses per nesting level.
class FlatTree {
 public:
  static constexpr TagId kText = UINT32_MAX;       ///< `tag` of a text node.
  static constexpr uint32_t kNoParent = UINT32_MAX;  ///< `parent` of the root.

  struct Record {
    TagId tag;        ///< Tag id, or kText.
    uint32_t parent;  ///< Index of the parent element.
    uint32_t first;   ///< Index of the first record of the subtree.
    uint32_t offset;  ///< Text: offset in the text pool; element: in desc.
    uint32_t length;  ///< Text: bytes; element: desc words (0 for a leaf).

    bool is_text() const { return tag == kText; }
    /// Has at least one element child.
    bool internal() const { return tag != kText && length != 0; }
  };

  /// Parses `xml` straight into the arena (SaxParser events, no DOM).
  /// Fails as ParseError like SaxParser::ParseToDom, and as
  /// InvalidArgument for a document too large for 32-bit indexes.
  static Result<FlatTree> Parse(std::string_view xml);

  /// Flattens a DOM (the root must be an element).
  static Result<FlatTree> Flatten(const Node& root);

  const std::vector<Record>& records() const { return records_; }
  uint32_t root() const { return static_cast<uint32_t>(records_.size() - 1); }
  const TagDictionary& dictionary() const { return dictionary_; }
  TagDictionary TakeDictionary() { return std::move(dictionary_); }

  std::string_view text(const Record& r) const {
    return std::string_view(text_).substr(r.offset, r.length);
  }
  /// Total bytes of text.
  size_t text_size() const { return text_.size(); }
  /// The descendant-tag bitset of an element (`length` words).
  const uint64_t* desc(const Record& r) const {
    return desc_.data() + r.offset;
  }

 private:
  friend class FlatTreeBuilder;

  std::vector<Record> records_;
  TagDictionary dictionary_;
  std::string text_;
  std::vector<uint64_t> desc_;
};

}  // namespace csxa::xml

#endif  // CSXA_XML_FLAT_TREE_H_

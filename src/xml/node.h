#ifndef CSXA_XML_NODE_H_
#define CSXA_XML_NODE_H_

#include <memory>
#include <string>
#include <vector>

namespace csxa::xml {

/// DOM-lite node. The library never materializes one (the SOE constraint):
/// publish, Table 2 statistics and Figure 8 sizes all work on the
/// post-order xml::FlatTree. Node, SaxParser::ParseToDom, FlatTree::Flatten
/// and index::Encode(const Node&) exist only for perfbench's `xml.parse`
/// and `index.encode` probes, which time the DOM path, and go when those
/// probes move to the flat tree.
class Node {
 public:
  /// Creates an element node.
  static std::unique_ptr<Node> Element(std::string tag);

  /// Frees the subtree without recursing, so a DOM of any depth tears
  /// down on the default stack.
  ~Node();

  bool is_element() const { return kind_ == Kind::kElement; }
  bool is_text() const { return kind_ == Kind::kText; }

  /// Tag name (elements) — empty for text nodes.
  const std::string& tag() const { return tag_; }
  /// Character data (text nodes) — empty for elements.
  const std::string& value() const { return value_; }

  Node* parent() const { return parent_; }
  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }

  /// Appends `<tag>` and returns it (ownership stays here).
  Node* AppendElement(std::string tag);
  /// Appends a text child.
  void AppendText(std::string value);

 private:
  enum class Kind { kElement, kText };

  explicit Node(Kind kind) : kind_(kind) {}

  Node* AppendChild(std::unique_ptr<Node> child);

  Kind kind_;
  std::string tag_;
  std::string value_;
  Node* parent_ = nullptr;
  std::vector<std::unique_ptr<Node>> children_;
};

}  // namespace csxa::xml

#endif  // CSXA_XML_NODE_H_

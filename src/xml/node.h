#ifndef CSXA_XML_NODE_H_
#define CSXA_XML_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "xml/event.h"

namespace csxa::xml {

/// DOM-lite node. The library's streaming paths never materialize one of
/// these for the input document (the SOE constraint); the DOM exists for
/// document construction, the test oracle, and result reassembly checks.
class Node {
 public:
  enum class Kind { kElement, kText };

  /// Creates an element node.
  static std::unique_ptr<Node> Element(std::string tag);
  /// Creates a text node.
  static std::unique_ptr<Node> Text(std::string value);

  /// Frees the subtree without recursing, so a DOM of any depth tears
  /// down on the default stack.
  ~Node();

  Kind kind() const { return kind_; }
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

  /// Appends a child and returns a raw pointer to it (ownership stays here).
  Node* AppendChild(std::unique_ptr<Node> child);
  /// Convenience: appends `<tag>` and returns it.
  Node* AppendElement(std::string tag);
  /// Convenience: appends a text child.
  Node* AppendText(std::string value);
  /// Convenience: appends `<tag>value</tag>` and returns the element.
  Node* AppendLeaf(std::string tag, std::string value);

  /// Depth with root = 1 (text children of the root have depth 2).
  int Depth() const;

  /// Number of element descendants including self (elements only).
  size_t CountElements() const;
  /// Total length of all text values in this subtree.
  size_t TextLength() const;

  /// Concatenated text content of the subtree (XPath string value).
  std::string StringValue() const;

  /// Emits this subtree as open/value/close events.
  void Emit(EventHandler* handler, int depth = 1) const;

  /// Deep structural equality (tag/value and children, in order).
  bool DeepEquals(const Node& other) const;

  /// Deep copy of the subtree.
  std::unique_ptr<Node> Clone() const;

 private:
  explicit Node(Kind kind) : kind_(kind) {}

  Kind kind_;
  std::string tag_;
  std::string value_;
  Node* parent_ = nullptr;
  std::vector<std::unique_ptr<Node>> children_;
};

}  // namespace csxa::xml

#endif  // CSXA_XML_NODE_H_

#include "xml/node.h"

namespace csxa::xml {

std::unique_ptr<Node> Node::Element(std::string tag) {
  auto node = std::unique_ptr<Node>(new Node(Kind::kElement));
  node->tag_ = std::move(tag);
  return node;
}

std::unique_ptr<Node> Node::Text(std::string value) {
  auto node = std::unique_ptr<Node>(new Node(Kind::kText));
  node->value_ = std::move(value);
  return node;
}

Node::~Node() {
  std::vector<std::unique_ptr<Node>> pending = std::move(children_);
  while (!pending.empty()) {
    std::unique_ptr<Node> node = std::move(pending.back());
    pending.pop_back();
    for (auto& child : node->children_) pending.push_back(std::move(child));
    node->children_.clear();
  }
}

Node* Node::AppendChild(std::unique_ptr<Node> child) {
  child->parent_ = this;
  children_.push_back(std::move(child));
  return children_.back().get();
}

Node* Node::AppendElement(std::string tag) {
  return AppendChild(Element(std::move(tag)));
}

Node* Node::AppendText(std::string value) {
  return AppendChild(Text(std::move(value)));
}

Node* Node::AppendLeaf(std::string tag, std::string value) {
  Node* elem = AppendElement(std::move(tag));
  elem->AppendText(std::move(value));
  return elem;
}

int Node::Depth() const {
  int depth = 1;
  for (const Node* n = parent_; n != nullptr; n = n->parent_) ++depth;
  return depth;
}

size_t Node::CountElements() const {
  size_t count = is_element() ? 1 : 0;
  for (const auto& child : children_) count += child->CountElements();
  return count;
}

size_t Node::TextLength() const {
  size_t len = value_.size();
  for (const auto& child : children_) len += child->TextLength();
  return len;
}

std::string Node::StringValue() const {
  if (is_text()) return value_;
  std::string out;
  for (const auto& child : children_) out += child->StringValue();
  return out;
}

void Node::Emit(EventHandler* handler, int depth) const {
  if (is_text()) {
    handler->OnValue(value_, depth);
    return;
  }
  handler->OnOpen(tag_, depth);
  for (const auto& child : children_) child->Emit(handler, depth + 1);
  handler->OnClose(tag_, depth);
}

bool Node::DeepEquals(const Node& other) const {
  if (kind_ != other.kind_ || tag_ != other.tag_ || value_ != other.value_) {
    return false;
  }
  if (children_.size() != other.children_.size()) return false;
  for (size_t i = 0; i < children_.size(); ++i) {
    if (!children_[i]->DeepEquals(*other.children_[i])) return false;
  }
  return true;
}

std::unique_ptr<Node> Node::Clone() const {
  std::unique_ptr<Node> copy =
      is_element() ? Element(tag_) : Text(value_);
  for (const auto& child : children_) copy->AppendChild(child->Clone());
  return copy;
}

}  // namespace csxa::xml

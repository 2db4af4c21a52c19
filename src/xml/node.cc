#include "xml/node.h"

namespace csxa::xml {

std::unique_ptr<Node> Node::Element(std::string tag) {
  auto node = std::unique_ptr<Node>(new Node(Kind::kElement));
  node->tag_ = std::move(tag);
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

void Node::AppendText(std::string value) {
  auto text = std::unique_ptr<Node>(new Node(Kind::kText));
  text->value_ = std::move(value);
  AppendChild(std::move(text));
}

}  // namespace csxa::xml

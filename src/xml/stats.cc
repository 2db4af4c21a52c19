#include "xml/stats.h"

#include <cstdio>
#include <unordered_set>
#include <utility>
#include <vector>

#include "xml/serializer.h"

namespace csxa::xml {

DocumentStats ComputeStats(const Node& root) {
  DocumentStats stats;
  std::unordered_set<std::string> tags;
  size_t depth_sum = 0;
  // An explicit stack of (node, depth): any depth fits the default stack.
  std::vector<std::pair<const Node*, int>> stack{{&root, 1}};
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    if (node->is_text()) {
      stats.text_nodes += 1;
      stats.text_bytes += node->value().size();
      continue;
    }
    stats.elements += 1;
    depth_sum += static_cast<size_t>(depth);
    if (depth > stats.max_depth) stats.max_depth = depth;
    tags.insert(node->tag());
    for (const auto& child : node->children()) {
      stack.emplace_back(child.get(), depth + 1);
    }
  }
  stats.distinct_tags = tags.size();
  stats.size_bytes = Serialize(root).size();
  stats.avg_depth = stats.elements == 0
                        ? 0.0
                        : static_cast<double>(depth_sum) /
                              static_cast<double>(stats.elements);
  return stats;
}

std::string DocumentStats::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "size=%zuB text=%zuB max_depth=%d avg_depth=%.1f tags=%zu "
                "text_nodes=%zu elements=%zu",
                size_bytes, text_bytes, max_depth, avg_depth, distinct_tags,
                text_nodes, elements);
  return buf;
}

}  // namespace csxa::xml

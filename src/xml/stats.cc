#include "xml/stats.h"

#include <cstdio>
#include <vector>

namespace csxa::xml {

DocumentStats ComputeStats(const FlatTree& tree) {
  DocumentStats stats;
  const std::vector<FlatTree::Record>& records = tree.records();
  // Post-order: a parent follows its children, so sweeping backwards
  // reaches each parent (and its depth) before any of its children.
  std::vector<int> depth(records.size());
  size_t depth_sum = 0;
  for (size_t i = records.size(); i-- > 0;) {
    const FlatTree::Record& r = records[i];
    if (r.is_text()) {
      const std::string_view text = tree.text(r);
      stats.text_nodes += 1;
      stats.text_bytes += text.size();
      // Escaped as the serializer writes it: &amp; &lt; &gt;.
      stats.size_bytes += text.size();
      for (char c : text) {
        stats.size_bytes += c == '&' ? 4 : (c == '<' || c == '>') ? 3 : 0;
      }
      continue;
    }
    depth[i] = r.parent == FlatTree::kNoParent ? 1 : depth[r.parent] + 1;
    stats.elements += 1;
    depth_sum += static_cast<size_t>(depth[i]);
    if (depth[i] > stats.max_depth) stats.max_depth = depth[i];
    // <t/> when childless, else <t>...</t>.
    const size_t tag = tree.dictionary().Name(r.tag).size();
    stats.size_bytes += r.first == i ? tag + 3 : 2 * tag + 5;
  }
  stats.distinct_tags = tree.dictionary().size();
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

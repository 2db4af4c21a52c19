#ifndef CSXA_XML_STATS_H_
#define CSXA_XML_STATS_H_

#include <cstddef>
#include <string>

#include "xml/flat_tree.h"

namespace csxa::xml {

/// Document characteristics as reported in Table 2 of the paper.
struct DocumentStats {
  size_t size_bytes = 0;      ///< Serialized (non-compressed) size.
  size_t text_bytes = 0;      ///< Total length of text nodes.
  int max_depth = 0;          ///< Deepest element (root = 1).
  double avg_depth = 0.0;     ///< Average element depth.
  size_t distinct_tags = 0;   ///< Number of distinct element names.
  size_t text_nodes = 0;      ///< Number of text nodes.
  size_t elements = 0;        ///< Number of element nodes.

  /// One row of Table 2 ("size text max_depth avg_depth #tags #text #elem").
  std::string ToString() const;
};

/// Computes Table 2 statistics for a document in one reverse sweep over
/// its records; `size_bytes` is the compact serialization's length.
DocumentStats ComputeStats(const FlatTree& tree);

}  // namespace csxa::xml

#endif  // CSXA_XML_STATS_H_

#ifndef CSXA_INDEX_VARIANTS_H_
#define CSXA_INDEX_VARIANTS_H_

#include <string_view>

#include "common/status.h"
#include "index/encoded_document.h"

namespace csxa::index {

/// Size decomposition of one encoding variant applied to one document —
/// the quantity Figure 8 plots as structure/text %.
struct SizeReport {
  Variant variant = Variant::kNc;
  uint64_t total_bytes = 0;
  uint64_t structure_bytes = 0;
  uint64_t text_bytes = 0;

  double StructTextPercent() const {
    return text_bytes == 0 ? 0.0
                           : 100.0 * static_cast<double>(structure_bytes) /
                                 static_cast<double>(text_bytes);
  }
};

/// Measures the size of the document `xml` under any variant, including NC
/// (its compact serialization, from xml::ComputeStats).
Result<SizeReport> MeasureVariant(std::string_view xml, Variant variant);

}  // namespace csxa::index

#endif  // CSXA_INDEX_VARIANTS_H_

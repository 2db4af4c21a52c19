#include "index/variants.h"

#include "index/encoder.h"
#include "xml/flat_tree.h"
#include "xml/stats.h"

namespace csxa::index {

Result<SizeReport> MeasureVariant(std::string_view xml, Variant variant) {
  SizeReport report;
  report.variant = variant;
  if (variant == Variant::kNc) {
    CSXA_ASSIGN_OR_RETURN(xml::FlatTree tree, xml::FlatTree::Parse(xml));
    const xml::DocumentStats stats = xml::ComputeStats(tree);
    report.total_bytes = stats.size_bytes;
    report.text_bytes = stats.text_bytes;
    report.structure_bytes = report.total_bytes - report.text_bytes;
    return report;
  }
  CSXA_ASSIGN_OR_RETURN(EncodedDocument doc, Encode(xml, variant));
  report.total_bytes = doc.bytes.size();
  report.text_bytes = doc.text_bits / 8;
  report.structure_bytes = (doc.structure_bits + 7) / 8;
  return report;
}

}  // namespace csxa::index

#ifndef CSXA_INDEX_ENCODER_H_
#define CSXA_INDEX_ENCODER_H_

#include <string_view>

#include "common/status.h"
#include "index/encoded_document.h"
#include "xml/node.h"

namespace csxa::index {

/// Encodes a document into one of the binary structure formats (Section
/// 4.1 of the paper). Variant::kNc is not a binary format — use
/// `MeasureVariant` from index/variants.h for its Figure 8 numbers.
///
/// Both entry points feed one core over an xml::FlatTree (a post-order
/// arena): this one parses `xml` straight into it, so the publish path
/// never builds a DOM. Parse failures are ParseError, as from
/// xml::SaxParser::ParseToDom.
///
/// The recursive size fields of TCS/TCSB/TCSBR are self-referential (a
/// subtree's size includes its children's size fields, whose widths depend
/// on that very size); one post-order sweep over the arena settles them,
/// element by element, at the greatest fixed point.
Result<EncodedDocument> Encode(std::string_view xml, Variant variant);

/// Encodes a DOM tree, flattened iteratively into the same arena. Kept for
/// perfbench's `index.encode` probe only (see xml/node.h).
Result<EncodedDocument> Encode(const xml::Node& root, Variant variant);

}  // namespace csxa::index

#endif  // CSXA_INDEX_ENCODER_H_

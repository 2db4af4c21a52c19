#ifndef CSXA_XML_SAX_PARSER_H_
#define CSXA_XML_SAX_PARSER_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "xml/event.h"
#include "xml/node.h"

namespace csxa::xml {

/// Event-based (SAX-like) push parser for the XML subset the paper
/// manipulates: elements, text content and self-closing tags. XML
/// declarations, comments and processing instructions are recognized and
/// skipped; attributes are parsed and ignored (the paper handles attributes
/// "similarly to elements" and does not evaluate on them); entity references
/// `&lt; &gt; &amp; &quot; &apos;` are decoded.
///
/// Text between two tags is one value: comments, PIs and CDATA sections
/// inside it do not split it, entities are decoded over the joined run,
/// and a whitespace-only run is dropped.
///
/// The parser is written from scratch (no libxml2) so the SOE pipeline has
/// a dependency-free, auditable ingestion path.
class SaxParser {
 public:
  /// Parses `input`, forwarding events to `handler`. The strings handed
  /// to it are the parser's reused buffers, valid only during the call.
  /// Fails with ParseError on mismatched/unterminated tags.
  static Status Parse(std::string_view input, EventHandler* handler);

  /// Parses into a DOM tree (single root element required).
  static Result<std::unique_ptr<Node>> ParseToDom(std::string_view input);
};

}  // namespace csxa::xml

#endif  // CSXA_XML_SAX_PARSER_H_

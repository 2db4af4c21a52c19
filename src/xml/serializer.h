#ifndef CSXA_XML_SERIALIZER_H_
#define CSXA_XML_SERIALIZER_H_

#include <string>
#include <string_view>

#include "xml/event.h"
#include "xml/node.h"

namespace csxa::xml {

/// Serializes a DOM subtree back to XML text. Entities are escaped so that
/// Serialize(Parse(x)) round-trips. `indent` < 0 produces compact output.
std::string Serialize(const Node& node, int indent = -1);

/// Appends `text` to `out` with `<`, `>`, `&` escaped, building no
/// temporary string. Shared by Serialize and SerializingHandler. The scan
/// tests eight bytes per step and copies the runs between special
/// characters in bulk.
void AppendEscapedText(std::string_view text, std::string* out);

/// EventHandler that serializes the event stream it receives; used to turn
/// the streaming evaluator's authorized output back into XML text.
class SerializingHandler : public EventHandler {
 public:
  void OnOpen(const std::string& tag, int depth) override;
  void OnValue(const std::string& value, int depth) override;
  void OnClose(const std::string& tag, int depth) override;
  void OnValueView(std::string_view value, int depth) override;

  /// Pull-API entry: serializes one borrowed event, so consumers draining
  /// an AuthorizedViewReader serialize each view item with one call and
  /// no copy of its text.
  void Feed(const EventView& event, int depth);

  const std::string& output() const { return out_; }

 private:
  std::string out_;
};

}  // namespace csxa::xml

#endif  // CSXA_XML_SERIALIZER_H_

#ifndef CSXA_XML_EVENT_H_
#define CSXA_XML_EVENT_H_

#include <string>
#include <string_view>

namespace csxa::xml {

/// SAX-style event kinds (the paper's open / value / close events).
enum class EventKind {
  kOpen,   ///< Opening tag `<tag>`.
  kValue,  ///< Text node content.
  kClose,  ///< Closing tag `</tag>`.
};

/// One parsing event that borrows its text: the tag name for open/close,
/// the character data for value events. Whoever hands one out says how
/// long `text` stays valid (the serve path: until its next pull).
struct EventView {
  EventKind kind = EventKind::kOpen;
  std::string_view text;

  bool operator==(const EventView& other) const = default;
};

/// An event that owns its text, for consumers that keep events past the
/// lifetime of the view they came from.
struct Event {
  EventKind kind = EventKind::kOpen;
  std::string text;

  static Event Open(std::string tag) {
    return Event{EventKind::kOpen, std::move(tag)};
  }
  static Event Value(std::string value) {
    return Event{EventKind::kValue, std::move(value)};
  }
  static Event Close(std::string tag) {
    return Event{EventKind::kClose, std::move(tag)};
  }
  /// Copies a borrowed event.
  static Event Of(const EventView& view) {
    return Event{view.kind, std::string(view.text)};
  }

  bool operator==(const Event& other) const = default;
};

/// Receiver of parsing events; implemented by the access-control evaluator,
/// the skip-index encoder, document statistics, etc.
class EventHandler {
 public:
  virtual ~EventHandler() = default;
  /// Called for `<tag>`. `depth` is the depth of the opened element
  /// (root = 1), matching the depth labels used by rule instances.
  virtual void OnOpen(const std::string& tag, int depth) = 0;
  /// Called for text content at the current depth.
  virtual void OnValue(const std::string& value, int depth) = 0;
  /// Called for `</tag>`; depth is the depth of the element being closed.
  virtual void OnClose(const std::string& tag, int depth) = 0;

  /// Text entry point for producers that can spare the handler a copy;
  /// defaults to OnValue().
  /// `value` is borrowed: it is valid only during the call, unless the
  /// producer documents more (access::RuleEvaluator's flushed values stay
  /// valid until its next event).
  virtual void OnValueView(std::string_view value, int depth) {
    OnValue(std::string(value), depth);
  }
};

}  // namespace csxa::xml

#endif  // CSXA_XML_EVENT_H_

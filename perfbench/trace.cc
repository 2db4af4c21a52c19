#include "trace.h"

namespace perfbench {

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kServe: return "serve";
    case SpanKind::kOpenSession: return "open_session";
    case SpanKind::kNext: return "next";
    case SpanKind::kReadBatch: return "read_batch";
    case SpanKind::kSerialize: return "serialize";
  }
  return "unknown";
}

SpanLog*& CurrentSpanLog() {
  thread_local SpanLog* log = nullptr;
  return log;
}

SpanLog::Totals SpanLog::Summarize() const {
  Totals totals;
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const uint64_t d = s.end_ns - s.start_ns;
    totals.total_ns[static_cast<size_t>(s.kind)] += d;
    if (s.parent != i) child_ns[s.parent] += d;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const uint64_t d = spans_[i].end_ns - spans_[i].start_ns;
    totals.self_ns[static_cast<size_t>(spans_[i].kind)] +=
        d > child_ns[i] ? d - child_ns[i] : 0;
  }
  return totals;
}

void AppendSpansJsonl(uint64_t serve_id, const std::vector<Span>& spans,
                      uint64_t epoch_ns, std::string* out) {
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    *out += "{\"serve\": " + std::to_string(serve_id) +
            ", \"span\": " + std::to_string(i) +
            ", \"parent\": " + std::to_string(s.parent) + ", \"name\": \"" +
            SpanKindName(s.kind) +
            "\", \"start_ns\": " + std::to_string(s.start_ns - epoch_ns) +
            ", \"end_ns\": " + std::to_string(s.end_ns - epoch_ns) + "}\n";
  }
}

}  // namespace perfbench

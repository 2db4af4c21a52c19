#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "crypto/secure_store.h"

namespace perfbench {

/// The public calls the traced run wraps. Every span is recorded in the
/// benchmark's own code around a call into the system; nothing inside the
/// library is instrumented.
enum class SpanKind : uint8_t {
  kServe,        ///< OpenSession -> Next() reporting the end (root).
  kOpenSession,  ///< server::DocumentService::OpenSession.
  kNext,         ///< server::SecureSession::Next.
  kReadBatch,    ///< crypto::BatchSource::ReadBatch, via TimedBatchSource.
  kSerialize,    ///< xml::SerializingHandler::Feed.
};
inline constexpr size_t kSpanKinds = 5;
const char* SpanKindName(SpanKind kind);

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  /// Index of the enclosing span within the same serve; the root span is
  /// its own parent.
  uint32_t parent = 0;
  SpanKind kind = SpanKind::kServe;
};

/// The spans of one serve, in start order. One log per client thread,
/// cleared and reused between serves; never shared across threads.
class SpanLog {
 public:
  uint32_t Begin(SpanKind kind) {
    const auto id = static_cast<uint32_t>(spans_.size());
    spans_.push_back({csxa::NowNs(), 0, open_.empty() ? id : open_.back(),
                      kind});
    open_.push_back(id);
    return id;
  }
  void End(uint32_t id) {
    spans_[id].end_ns = csxa::NowNs();
    open_.pop_back();
  }
  void Clear() {
    spans_.clear();
    open_.clear();
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Per kind: total duration and self time (duration minus the part its
  /// direct children cover — children of one serve never overlap, since
  /// a serve runs on one thread).
  struct Totals {
    std::array<uint64_t, kSpanKinds> total_ns{};
    std::array<uint64_t, kSpanKinds> self_ns{};
  };
  Totals Summarize() const;

 private:
  std::vector<Span> spans_;
  std::vector<uint32_t> open_;
};

/// The log of the serve the calling thread is tracing, or null when the
/// thread is not tracing. TimedBatchSource records into it.
SpanLog*& CurrentSpanLog();

/// RAII span on the calling thread's current log (no-op without one).
class ScopedSpan {
 public:
  explicit ScopedSpan(SpanKind kind) : log_(CurrentSpanLog()) {
    if (log_ != nullptr) id_ = log_->Begin(kind);
  }
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  uint32_t id_ = 0;
};

/// Timing decorator over a terminal endpoint, installed through
/// DocumentService::AttachTransport: each ReadBatch issued by a traced
/// serve becomes a kReadBatch span under whatever span the calling thread
/// has open (OpenSession or Next). Transport stats pass through, so the
/// fetcher's retry and reconnect deltas are those of the wrapped source.
class TimedBatchSource : public csxa::crypto::BatchSource {
 public:
  explicit TimedBatchSource(std::shared_ptr<const csxa::crypto::BatchSource> inner)
      : inner_(std::move(inner)) {}

  csxa::Result<csxa::crypto::BatchResponse> ReadBatch(
      const csxa::crypto::BatchRequest& request) const override {
    ScopedSpan span(SpanKind::kReadBatch);
    return inner_->ReadBatch(request);
  }
  TransportStats transport_stats() const override {
    return inner_->transport_stats();
  }

 private:
  std::shared_ptr<const csxa::crypto::BatchSource> inner_;
};

/// Appends `spans` of serve `serve_id` as JSON lines (one span per line,
/// times relative to `epoch_ns`).
void AppendSpansJsonl(uint64_t serve_id, const std::vector<Span>& spans,
                      uint64_t epoch_ns, std::string* out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

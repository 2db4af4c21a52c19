#include "runner.h"

#include "calibration.h"
#include "common/clock.h"
#include "net/remote_source.h"
#include "xml/serializer.h"

namespace perfbench {

namespace {

using csxa::NowNs;
using csxa::Status;

/// Serve attempts (first open + stale re-opens) before a serve counts as
/// a retry ladder that ran dry.
constexpr int kMaxServeAttempts = 8;
/// Spans written to the span file per client.
constexpr uint64_t kMaxRetainedSpansPerClient = 40'000;
/// Each client runs one calibration unit every kCalibEveryNs.
constexpr uint64_t kCalibEveryNs = 250'000'000;

}  // namespace

csxa::Result<std::unique_ptr<Deployment>> Deployment::Start(
    const WorkloadSpec& spec, const std::vector<std::unique_ptr<Document>>& docs,
    const csxa::crypto::TripleDes::Key& key, uint64_t seed, bool traced,
    std::vector<uint64_t>* publish_ns) {
  auto dep = std::unique_ptr<Deployment>(new Deployment());
  csxa::server::DocumentConfig cfg;
  cfg.variant = csxa::index::Variant::kTcsbr;
  cfg.key = key;
  cfg.backend = spec.backend;
  cfg.shared_cache_capacity = 4096;  // every chunk of a 1 MiB document
  for (const auto& doc : docs) {
    const uint64_t t0 = NowNs();
    CSXA_RETURN_NOT_OK(dep->service_.Publish(doc->id, doc->contents[0], cfg));
    publish_ns->push_back(NowNs() - t0);
    dep->ids_.push_back(doc->id);
  }
  if (spec.remote) {
    dep->terminal_ = std::make_unique<csxa::net::TerminalServer>();
    for (const auto& doc : docs) {
      CSXA_ASSIGN_OR_RETURN(auto link, dep->service_.TerminalLink(doc->id));
      dep->terminal_->RegisterDocument(doc->id, std::move(link));
    }
    CSXA_RETURN_NOT_OK(dep->terminal_->Start());
    csxa::net::FaultProxy::Options popts;
    popts.upstream_port = dep->terminal_->port();
    popts.rtt_ns = spec.rtt_ns;
    dep->proxy_ = std::make_unique<csxa::net::FaultProxy>(std::move(popts));
    CSXA_RETURN_NOT_OK(dep->proxy_->Start());
    for (size_t d = 0; d < docs.size(); ++d) {
      csxa::net::RemoteBatchSource::Options ropts;
      ropts.port = dep->proxy_->port();
      ropts.doc_id = docs[d]->id;
      ropts.jitter_seed = seed * 1000003ULL + d;
      std::shared_ptr<const csxa::crypto::BatchSource> source =
          std::make_shared<csxa::net::RemoteBatchSource>(ropts);
      if (traced) source = std::make_shared<TimedBatchSource>(source);
      CSXA_RETURN_NOT_OK(
          dep->service_.AttachTransport(docs[d]->id, std::move(source)));
    }
  } else if (traced) {
    for (const auto& doc : docs) {
      CSXA_ASSIGN_OR_RETURN(auto link, dep->service_.TerminalLink(doc->id));
      CSXA_RETURN_NOT_OK(dep->service_.AttachTransport(
          doc->id, std::make_shared<TimedBatchSource>(std::move(link))));
    }
  }
  return dep;
}

Deployment::~Deployment() {
  if (proxy_ != nullptr) proxy_->Stop();
  if (terminal_ != nullptr) terminal_->Stop();
  // Detaching releases each remote source, joining its reader thread.
  for (const std::string& id : ids_) {
    (void)service_.AttachTransport(id, nullptr);
  }
}

void Runner::Fail(ClientLog* out, std::string why) {
  if (out->failed++ == 0) out->first_error = std::move(why);
}

void Runner::Serve(size_t d, size_t role, bool tight, bool traced,
                   uint64_t serve_id, SpanLog* log, ClientLog* out) {
  Document& doc = *docs_[d];
  csxa::pipeline::ServeOptions opts;
  if (tight) opts.pending_buffer_budget = kTightBudget;
  ++out->attempted;
  Sample s;
  s.doc = static_cast<uint32_t>(d);
  s.role = static_cast<uint32_t>(role);
  s.tight = tight;
  s.traced = traced;
  if (traced) log->Clear();
  CurrentSpanLog() = traced ? log : nullptr;
  const uint64_t t0 = NowNs();
  const uint32_t root = traced ? log->Begin(SpanKind::kServe) : 0;
  Status error = Status::OK();
  bool mismatch = false;
  std::unique_ptr<csxa::server::SecureSession> session;
  uint64_t crypto_at_open = 0;
  for (int attempt = 0; attempt < kMaxServeAttempts; ++attempt) {
    if (attempt > 0) ++s.stale_reopens;
    error = Status::OK();
    {
      ScopedSpan span(SpanKind::kOpenSession);
      auto opened = dep_->service().OpenSession(doc.id, doc.roles[role], opts);
      if (opened.ok()) {
        session = opened.take();
      } else {
        error = opened.status();
      }
    }
    if (error.ok()) {
      crypto_at_open =
          session->stream().soe().decrypt_ns + session->stream().soe().hash_ns;
      csxa::xml::SerializingHandler ser;
      while (true) {
        csxa::Result<csxa::pipeline::ViewItem> item = [&] {
          ScopedSpan span(SpanKind::kNext);
          return session->Next();
        }();
        if (!item.ok()) {
          error = item.status();
          break;
        }
        if (s.first_event_ns == 0) s.first_event_ns = NowNs() - t0;
        if (item.value().end) break;
        ScopedSpan span(SpanKind::kSerialize);
        ser.Feed(item.value().event, item.value().depth);
      }
      if (error.ok()) {
        const auto& refs = doc.refs[session->version() % doc.contents.size()];
        mismatch = ser.output() != refs[role];
        break;
      }
    }
    // A version bump racing the serve fails it closed; the contract on a
    // churning workload is to re-open on the current version.
    if (spec_.update_share == 0 ||
        error.code() != csxa::StatusCode::kIntegrityError) {
      break;
    }
  }
  s.latency_ns = NowNs() - t0;
  if (traced) log->End(root);
  CurrentSpanLog() = nullptr;

  if (!error.ok() || mismatch) {
    Fail(out, !error.ok() ? "serve of " + doc.id + ": " + error.ToString()
                          : "view mismatch on " + doc.id + " role " +
                                std::to_string(role));
    return;
  }
  const auto& stream = session->stream();
  const auto& fetcher = stream.fetcher();
  const auto& planner = fetcher.planner_stats();
  const auto& soe = stream.soe();
  const auto& eval = stream.eval();
  s.encoded_bytes = fetcher.size();
  s.wire_bytes = fetcher.wire_bytes();
  s.requests = fetcher.requests();
  s.bytes_fetched = fetcher.bytes_fetched();
  s.proof_hashes = fetcher.proof_hashes_shipped();
  s.digest_bytes = fetcher.digest_bytes_shipped();
  s.gap_fragments = planner.gap_fragments_bridged;
  s.speculation_waste = planner.speculation_waste_bytes;
  s.stream_all_fallbacks = planner.stream_all_fallbacks;
  s.retries = fetcher.retries();
  s.reconnects = fetcher.reconnects();
  s.decrypt_bytes = soe.bytes_decrypted + soe.digest_bytes_decrypted;
  s.hash_bytes = soe.bytes_hashed;
  s.decrypt_ns = soe.decrypt_ns;
  s.hash_ns = soe.hash_ns;
  s.events_in = eval.events_in;
  s.events_pruned = eval.events_pruned;
  s.predicates = eval.predicates_spawned;
  s.watchers = eval.watcher_subscriptions;
  s.peak_buffered_bytes = eval.peak_buffered_bytes;
  s.skip_checks = eval.skip_checks;
  s.skips_advised = eval.skips_advised;
  s.skipped_bits = stream.drive().skipped_bits;
  s.deferrals = stream.drive().deferrals;
  s.reread_fetched = stream.drive().reread_fetched_bytes;
  if (s.retries != 0 || s.reconnects != 0) {
    // The pipe is clean: a retry means the transport misbehaved.
    Fail(out, "transport retried on a clean pipe (" + doc.id + ")");
    return;
  }
  if (traced) {
    const SpanLog::Totals t = log->Summarize();
    const auto k = [](SpanKind kind) { return static_cast<size_t>(kind); };
    s.open_ns = t.total_ns[k(SpanKind::kOpenSession)];
    s.read_batch_ns = t.total_ns[k(SpanKind::kReadBatch)];
    s.serialize_ns = t.total_ns[k(SpanKind::kSerialize)];
    // Decrypt and hash run inside the fetches a Next() triggers; the
    // part that ran during OpenSession (the header read) is excluded.
    const uint64_t crypto_in_next = s.decrypt_ns + s.hash_ns - crypto_at_open;
    const uint64_t next_self = t.self_ns[k(SpanKind::kNext)];
    s.next_self_ns = next_self > crypto_in_next ? next_self - crypto_in_next : 0;
    for (const Span& span : log->spans()) {
      if (span.kind == SpanKind::kReadBatch) {
        out->read_batch_ns.push_back(span.end_ns - span.start_ns);
      }
    }
    if (out->spans_retained + log->spans().size() <= kMaxRetainedSpansPerClient) {
      out->spans_retained += log->spans().size();
      AppendSpansJsonl(serve_id, log->spans(), epoch_ns_, &out->spans_jsonl);
    }
  }
  out->serves.push_back(s);
}

void Runner::Update(size_t d, ClientLog* out) {
  Document& doc = *docs_[d];
  ++out->attempted;
  csxa::MutexLock lock(&doc.update_mu);
  const uint32_t next = doc.version + 1;
  TallyCacheLocked(d);
  const uint64_t t0 = NowNs();
  const Status st = dep_->service().Update(
      doc.id, doc.contents[next % doc.contents.size()]);
  const uint64_t dt = NowNs() - t0;
  if (!st.ok()) {
    Fail(out, "update of " + doc.id + ": " + st.ToString());
    return;
  }
  doc.version = next;
  cache_base_[d] = {};  // the bump installed a fresh, empty cache
  out->updates.push_back({static_cast<uint32_t>(d), dt});
}

void Runner::RunClient(int client, uint64_t seed, bool trace_run,
                       uint64_t deadline_ns, std::atomic<uint64_t>* serve_ids,
                       ClientLog* out) {
  Rng rng{seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(client) * 7919 + 1};
  std::vector<Op> deck = BuildDeck(spec_, docs_.size());
  size_t dealt = deck.size();
  SpanLog log;
  uint64_t serial = 0;
  uint64_t next_calib = 0;
  while (NowNs() < deadline_ns) {
    if (NowNs() >= next_calib) {
      out->calib_ns.push_back(CalibrationUnitNs());
      next_calib = NowNs() + kCalibEveryNs;
    }
    if (dealt == deck.size()) {
      rng.Shuffle(&deck);
      dealt = 0;
    }
    const Op op = deck[dealt++];
    if (op.update) {
      Update(op.doc, out);
      continue;
    }
    const bool traced = trace_run && serial++ % 2 == 0;
    Serve(op.doc, op.role, op.tight, traced, serve_ids->fetch_add(1), &log, out);
  }
  out->finished_ns = NowNs();
}

void Runner::BeginCacheTally() {
  cache_acc_.assign(docs_.size(), {});
  cache_base_.assign(docs_.size(), {});
  for (size_t d = 0; d < docs_.size(); ++d) {
    csxa::MutexLock lock(&docs_[d]->update_mu);
    auto stats = dep_->service().CacheStats(docs_[d]->id);
    if (stats.ok()) {
      cache_base_[d] = {stats.value().bare_hits, stats.value().misses};
    }
  }
}

double Runner::FinishCacheTally() {
  CacheTally total;
  for (size_t d = 0; d < docs_.size(); ++d) {
    csxa::MutexLock lock(&docs_[d]->update_mu);
    TallyCacheLocked(d);
    total.hits += cache_acc_[d].hits;
    total.misses += cache_acc_[d].misses;
  }
  return total.hits + total.misses == 0
             ? 0.0
             : static_cast<double>(total.hits) /
                   static_cast<double>(total.hits + total.misses);
}

void Runner::TallyCacheLocked(size_t d) {
  auto stats = dep_->service().CacheStats(docs_[d]->id);
  if (!stats.ok()) return;
  cache_acc_[d].hits += stats.value().bare_hits - cache_base_[d].hits;
  cache_acc_[d].misses += stats.value().misses - cache_base_[d].misses;
  cache_base_[d] = {stats.value().bare_hits, stats.value().misses};
}

}  // namespace perfbench

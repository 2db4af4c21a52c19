#include "server/document_service.h"

#include <utility>

#include "crypto/wire_format.h"
#include "index/encoder.h"

namespace csxa::server {

namespace internal {

Result<crypto::BatchResponse> DocumentEntry::ReadBatch(
    const crypto::BatchRequest& request) const {
  // The terminal link speaks the wire format even in-process: the request
  // and response frames are serialized and re-parsed on every round trip,
  // so the length-checked decoder (the attacker-controlled surface a real
  // transport will expose) is exercised by every serve of every test, not
  // only by the fuzz corpus. Frames, the decoded request and the store's
  // response live in pooled scratch.
  std::shared_ptr<const pipeline::DocumentState> state;
  std::unique_ptr<LinkScratch> scratch;
  {
    MutexLock lock(&mu_);
    state = state_;
    if (!idle_scratch_.empty()) {
      scratch = std::move(idle_scratch_.back());
      idle_scratch_.pop_back();
    }
  }
  if (scratch == nullptr) scratch = std::make_unique<LinkScratch>();
  LinkScratch& link = *scratch;
  Result<crypto::BatchResponse> result =
      [&]() -> Result<crypto::BatchResponse> {
    link.request_frame.clear();
    crypto::EncodeBatchRequest(request, &link.request_frame);
    CSXA_RETURN_NOT_OK(crypto::DecodeBatchRequest(
        link.request_frame.data(), link.request_frame.size(), &link.request));
    CSXA_RETURN_NOT_OK(state->store.FillBatch(link.request, &link.response));
    link.response_frame.clear();
    crypto::EncodeBatchResponse(link.response, &link.response_frame);
    return crypto::DecodeBatchResponse(link.response_frame.data(),
                                       link.response_frame.size());
  }();
  // A scratch whose frame grew past 1 MiB (one huge read under a wide
  // batch horizon) is dropped rather than kept at that size.
  constexpr size_t kRetainedFrameBytes = size_t{1} << 20;
  if (scratch->response_frame.capacity() <= kRetainedFrameBytes) {
    MutexLock lock(&mu_);
    idle_scratch_.push_back(std::move(scratch));
  }
  return result;
}

}  // namespace internal

Result<std::shared_ptr<const pipeline::DocumentState>>
DocumentService::BuildState(const std::string& xml, const DocumentConfig& cfg,
                            uint32_t version) {
  CSXA_ASSIGN_OR_RETURN(index::EncodedDocument doc,
                        index::Encode(xml, cfg.variant));
  CSXA_ASSIGN_OR_RETURN(crypto::SecureDocumentStore store,
                        crypto::SecureDocumentStore::Build(
                            doc.bytes, cfg.key, cfg.layout, version,
                            cfg.backend));
  auto state = std::make_shared<pipeline::DocumentState>();
  state->key = cfg.key;
  state->store = std::move(store);
  // The shared cache is born with the state and dies with the last
  // session holding it: entries are keyed (chunk, node) inside an
  // instance keyed (document, version) — a bump can therefore never leak
  // one version's authenticated hashes into another's serves. Without
  // one, each serve's decryptor keeps a private cache.
  if (cfg.shared_cache_capacity != 0) {
    state->cache = std::make_shared<crypto::VerifiedDigestCache>(
        cfg.layout.fragments_per_chunk(), cfg.shared_cache_capacity, version);
  }
  return std::shared_ptr<const pipeline::DocumentState>(std::move(state));
}

Status DocumentService::Publish(const std::string& doc_id,
                                const std::string& xml,
                                const DocumentConfig& cfg) {
  CSXA_RETURN_NOT_OK(
      cfg.layout.Validate(crypto::CipherBackendBlockSize(cfg.backend)));
  CSXA_ASSIGN_OR_RETURN(auto state, BuildState(xml, cfg, /*version=*/0));
  auto entry = std::make_shared<internal::DocumentEntry>();
  entry->Swap(std::move(state));
  MutexLock lock(&mu_);
  if (!docs_.emplace(doc_id, Published{cfg, std::move(entry), nullptr})
           .second) {
    return Status::InvalidArgument("document already published: " + doc_id);
  }
  return Status::OK();
}

Status DocumentService::Update(const std::string& doc_id,
                               const std::string& xml) {
  DocumentConfig cfg;
  std::shared_ptr<internal::DocumentEntry> entry;
  {
    MutexLock lock(&mu_);
    auto it = docs_.find(doc_id);
    if (it == docs_.end()) {
      return Status::InvalidArgument("document not published: " + doc_id);
    }
    cfg = it->second.cfg;
    entry = it->second.entry;
  }
  // Serialized per entry so two racing updates of one document cannot
  // mint the same version number for different content (sessions could
  // then mix them undetected); updates of other documents proceed.
  MutexLock update_lock(&entry->update_mu);
  const uint32_t next_version = entry->Current()->store.version() + 1;
  CSXA_ASSIGN_OR_RETURN(auto state, BuildState(xml, cfg, next_version));
  entry->Swap(std::move(state));
  return Status::OK();
}

Result<std::shared_ptr<internal::DocumentEntry>> DocumentService::FindEntry(
    const std::string& doc_id) const {
  MutexLock lock(&mu_);
  auto it = docs_.find(doc_id);
  if (it == docs_.end()) {
    return Status::InvalidArgument("document not published: " + doc_id);
  }
  return it->second.entry;
}

Result<std::unique_ptr<SecureSession>> DocumentService::OpenSession(
    const std::string& doc_id, const std::vector<access::AccessRule>& rules,
    const pipeline::ServeOptions& options) const {
  std::shared_ptr<internal::DocumentEntry> entry;
  std::shared_ptr<const crypto::BatchSource> source;
  {
    MutexLock lock(&mu_);
    auto it = docs_.find(doc_id);
    if (it == docs_.end()) {
      return Status::InvalidArgument("document not published: " + doc_id);
    }
    entry = it->second.entry;
    source = it->second.transport;
  }
  // Snapshot the version the session is opened for: geometry, expected
  // version and shared cache come from it, while actual batch reads go
  // through the entry (the *current* store) or the attached transport —
  // a bump between here and the last fetch is therefore detected, not
  // papered over.
  std::shared_ptr<const pipeline::DocumentState> state = entry->Current();
  if (source == nullptr) source = std::move(entry);
  CSXA_ASSIGN_OR_RETURN(
      auto stream,
      pipeline::ServeStream::Open(source.get(), *state, rules, options));
  return std::unique_ptr<SecureSession>(new SecureSession(
      std::move(source), std::move(state), std::move(stream)));
}

Result<pipeline::ServeReport> DocumentService::Serve(
    const std::string& doc_id, const std::vector<access::AccessRule>& rules,
    const pipeline::ServeOptions& options) const {
  CSXA_ASSIGN_OR_RETURN(auto session, OpenSession(doc_id, rules, options));
  return session->Drain();
}

Result<uint32_t> DocumentService::CurrentVersion(
    const std::string& doc_id) const {
  CSXA_ASSIGN_OR_RETURN(auto entry, FindEntry(doc_id));
  return entry->Current()->store.version();
}

Result<crypto::VerifiedDigestCache::Stats> DocumentService::CacheStats(
    const std::string& doc_id) const {
  CSXA_ASSIGN_OR_RETURN(auto entry, FindEntry(doc_id));
  auto state = entry->Current();
  if (state->cache == nullptr) return crypto::VerifiedDigestCache::Stats{};
  return state->cache->stats();
}

Result<std::shared_ptr<const crypto::BatchTerminal>>
DocumentService::TerminalLink(const std::string& doc_id) const {
  CSXA_ASSIGN_OR_RETURN(auto entry, FindEntry(doc_id));
  return std::shared_ptr<const crypto::BatchTerminal>(std::move(entry));
}

Status DocumentService::AttachTransport(
    const std::string& doc_id,
    std::shared_ptr<const crypto::BatchSource> source) {
  MutexLock lock(&mu_);
  auto it = docs_.find(doc_id);
  if (it == docs_.end()) {
    return Status::InvalidArgument("document not published: " + doc_id);
  }
  it->second.transport = std::move(source);
  return Status::OK();
}

}  // namespace csxa::server

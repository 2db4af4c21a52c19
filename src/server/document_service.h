#ifndef CSXA_SERVER_DOCUMENT_SERVICE_H_
#define CSXA_SERVER_DOCUMENT_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "crypto/digest_cache.h"
#include "crypto/secure_store.h"
#include "index/variants.h"
#include "pipeline/serve_stream.h"

namespace csxa::server {

/// Owner-side publication parameters of one document (the per-serve knobs
/// stay in pipeline::ServeOptions).
struct DocumentConfig {
  index::Variant variant = index::Variant::kTcsbr;
  crypto::ChunkLayout layout;
  crypto::TripleDes::Key key{};
  /// Entries (chunks) of the per-(document, version) shared verified-digest
  /// cache. Sized to hold a whole document's chunks so a warm service
  /// serves every session material-free. 0 publishes without a shared
  /// cache: every serve then starts cold with a private cache of
  /// ServeOptions::digest_cache_capacity entries, and nothing carries
  /// over between serves (the Figure 8 comparisons want exactly that).
  size_t shared_cache_capacity = 128;
  /// Cipher backend the document is encrypted under; carried across
  /// Update() rebuilds so every version of a document uses one backend.
  crypto::CipherBackendKind backend = crypto::CipherBackendKind::k3Des;
};

namespace internal {

/// The live terminal link of one document id. Every session's fetcher
/// reads through this (not through its own version snapshot): the terminal
/// has exactly one current store, and a session opened before a version
/// bump must see the bumped bytes — and reject them as "stale chunk
/// digest" — rather than keep serving a state the terminal no longer
/// holds. That is the replay-protection contract of Section 6 carried
/// into the concurrent-service world.
class DocumentEntry : public crypto::BatchTerminal {
 public:
  /// The in-process link: the request and the response each cross the
  /// wire codec once, encoded and decoded in pooled frames.
  Result<crypto::BatchResponse> ReadBatch(
      const crypto::BatchRequest& request) const override;
  /// The socket link: net::TerminalServer has decoded the request and
  /// encodes `response` itself.
  Status FillBatch(const crypto::BatchRequest& request,
                   crypto::BatchResponse* response) const override {
    return Current()->store.FillBatch(request, response);
  }

  std::shared_ptr<const pipeline::DocumentState> Current() const
      CSXA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return state_;
  }
  void Swap(std::shared_ptr<const pipeline::DocumentState> next)
      CSXA_EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    state_ = std::move(next);
  }

  /// Serializes this document's read-bump-swap update sequence (two
  /// racing updates must not mint the same version number for different
  /// content). Per entry, so one document's expensive rebuild never
  /// stalls another's. Lock order: update_mu strictly before mu_ (the
  /// update's final Swap runs under both; nothing acquires update_mu
  /// with mu_ held).
  Mutex update_mu CSXA_ACQUIRED_BEFORE(mu_);

 private:
  /// One round trip's frames, decoded request and store response. Kept in
  /// a pool and reused, so a warm round trip allocates only the response
  /// it hands back.
  struct LinkScratch {
    std::vector<uint8_t> request_frame;
    crypto::BatchRequest request;
    crypto::BatchResponse response;
    std::vector<uint8_t> response_frame;
  };

  mutable Mutex mu_;
  std::shared_ptr<const pipeline::DocumentState> state_ CSXA_GUARDED_BY(mu_);
  /// Scratch of finished round trips: one per concurrent reader at most.
  mutable std::vector<std::unique_ptr<LinkScratch>> idle_scratch_
      CSXA_GUARDED_BY(mu_);
};

}  // namespace internal

/// One user's serve against a published document: keep-alives for the
/// terminal endpoint it reads through (the document's live link, or the
/// transport attached when it opened) and for the version snapshot it was
/// opened under, wrapping the per-serve SOE chain. Many SecureSessions run
/// concurrently against one DocumentService; they share nothing mutable
/// but the thread-safe verified-digest cache of their document version —
/// which is what makes every session after the first start warm: trimmed
/// proofs and bare re-reads from its first request.
class SecureSession {
 public:
  SecureSession(const SecureSession&) = delete;
  SecureSession& operator=(const SecureSession&) = delete;

  /// Next authorized-view event; `.end` true after the last one. A
  /// version bump racing this serve surfaces as IntegrityError ("stale
  /// chunk digest" / cached-root mismatch) — never as silently mixed
  /// content.
  Result<pipeline::ViewItem> Next() { return stream_->Next(); }

  /// Drains the remaining view into a serialized string + cost report.
  Result<pipeline::ServeReport> Drain() {
    return pipeline::DrainServeStream(stream_.get());
  }

  uint32_t version() const { return state_->store.version(); }
  const pipeline::ServeStream& stream() const { return *stream_; }

 private:
  friend class DocumentService;
  SecureSession(std::shared_ptr<const crypto::BatchSource> source,
                std::shared_ptr<const pipeline::DocumentState> state,
                std::unique_ptr<pipeline::ServeStream> stream)
      : source_(std::move(source)),
        state_(std::move(state)),
        stream_(std::move(stream)) {}

  std::shared_ptr<const crypto::BatchSource> source_;  ///< Terminal endpoint.
  std::shared_ptr<const pipeline::DocumentState> state_;  ///< Version snapshot.
  std::unique_ptr<pipeline::ServeStream> stream_;
};

/// The server and the one serve facade: owns one SecureDocumentStore per
/// published document and serves many concurrent SecureSessions against
/// each (single-document callers publish here too). Thread-safe —
/// Publish/Update/OpenSession/Serve may be called from any thread.
///
/// Sharing model (what crosses session boundaries, and why it is safe):
///  - the store: immutable per version, terminal-side ciphertext anyway;
///  - the verified-digest cache: authenticated Merkle hashes of that
///    ciphertext, keyed (document, version, chunk, node) — the instance
///    is bound to (document, version), entries to (chunk, node). Entries
///    are written only after a full digest-chain verification, so sharing
///    them across serves discloses nothing the terminal does not already
///    serve to anyone, and saves every session after the first the whole
///    material transfer. A version bump swaps in a fresh instance, so a
///    stale version's hashes can never vouch for bumped content.
/// Everything else (decryptor, fetcher, navigator, evaluator) is strictly
/// per-session.
class DocumentService {
 public:
  DocumentService() = default;
  DocumentService(const DocumentService&) = delete;
  DocumentService& operator=(const DocumentService&) = delete;

  /// Owner side: parses `xml`, encodes, encrypts, and publishes it under
  /// `doc_id` at version 0. Fails if the id is already published.
  Status Publish(const std::string& doc_id, const std::string& xml,
                 const DocumentConfig& cfg);

  /// Re-publishes `doc_id` with the document version bumped by one: the
  /// terminal store is swapped and the shared digest cache replaced with a
  /// fresh (empty) instance stamped with the new version. Sessions opened
  /// before the bump fail closed on their next fetch.
  Status Update(const std::string& doc_id, const std::string& xml);

  /// SOE side: opens a pull session of the authorized view for `rules`
  /// against the current version of `doc_id`, wired to its shared cache
  /// (if it was published with one).
  Result<std::unique_ptr<SecureSession>> OpenSession(
      const std::string& doc_id,
      const std::vector<access::AccessRule>& rules,
      const pipeline::ServeOptions& options) const;

  /// Convenience: OpenSession + Drain.
  Result<pipeline::ServeReport> Serve(
      const std::string& doc_id, const std::vector<access::AccessRule>& rules,
      const pipeline::ServeOptions& options) const;

  Result<uint32_t> CurrentVersion(const std::string& doc_id) const;
  /// Snapshot of the current version's shared-cache stats (zeros when the
  /// document was published without a shared cache).
  Result<crypto::VerifiedDigestCache::Stats> CacheStats(
      const std::string& doc_id) const;

  /// Terminal side: the live batch link of `doc_id` — the object a
  /// net::TerminalServer registers so a remote SOE reads the *current*
  /// store (version bumps included) over the wire exactly as an
  /// in-process session does; it converts to the crypto::BatchSource an
  /// in-process reader takes. Holds ciphertext and digests only; keys,
  /// geometry and the expected version never cross this boundary.
  Result<std::shared_ptr<const crypto::BatchTerminal>> TerminalLink(
      const std::string& doc_id) const;

  /// SOE side: routes every *future* session's batch reads for `doc_id`
  /// through `source` (e.g. a net::RemoteBatchSource dialing a remote
  /// terminal) instead of the in-process entry; nullptr detaches. Already-
  /// open sessions keep the source they were opened with. Geometry, key,
  /// expected version and the shared digest cache still come from the
  /// local version snapshot, so bytes fetched through `source` re-verify
  /// against locally trusted digests — the transport can delay a serve,
  /// never alter what it will accept.
  Status AttachTransport(const std::string& doc_id,
                         std::shared_ptr<const crypto::BatchSource> source);

 private:
  static Result<std::shared_ptr<const pipeline::DocumentState>> BuildState(
      const std::string& xml, const DocumentConfig& cfg, uint32_t version);
  Result<std::shared_ptr<internal::DocumentEntry>> FindEntry(
      const std::string& doc_id) const;

  mutable Mutex mu_;  ///< Guards the registry, not the entries.
  struct Published {
    DocumentConfig cfg;
    std::shared_ptr<internal::DocumentEntry> entry;
    /// Session-side transport override (AttachTransport); null = in-process.
    std::shared_ptr<const crypto::BatchSource> transport;
  };
  std::map<std::string, Published> docs_ CSXA_GUARDED_BY(mu_);
};

}  // namespace csxa::server

#endif  // CSXA_SERVER_DOCUMENT_SERVICE_H_

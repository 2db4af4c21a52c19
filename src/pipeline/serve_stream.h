#ifndef CSXA_PIPELINE_SERVE_STREAM_H_
#define CSXA_PIPELINE_SERVE_STREAM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "common/status.h"
#include "crypto/digest_cache.h"
#include "crypto/secure_store.h"
#include "index/decoder.h"
#include "index/secure_fetcher.h"
#include "pipeline/authorized_view_reader.h"

namespace csxa::pipeline {

/// Immutable snapshot of one published document version: the encrypted
/// store (which also fixes the geometry, version and cipher backend the
/// SOE verifies against), the document key, and the shared
/// verified-digest cache stamped with this version (null when the
/// document was published without one: every serve then keeps a private
/// cache). Sessions hold it by shared_ptr, so an Update never pulls
/// memory out from under an in-flight serve — it only makes the serve
/// *fail closed* (the live terminal link starts answering with the next
/// version's bytes and digests).
struct DocumentState {
  crypto::SecureDocumentStore store;
  crypto::TripleDes::Key key{};
  std::shared_ptr<crypto::VerifiedDigestCache> cache;
};

/// Per-serve knobs, so skip/defer/full comparisons reuse one owner-side
/// build (parse/encode/encrypt happen once per published version).
struct ServeOptions {
  ServeOptions() = default;
  /// The common skip/budget pair; planner and cache knobs keep defaults.
  ServeOptions(bool skip, uint64_t budget)
      : enable_skip(skip), pending_buffer_budget(budget) {}

  bool enable_skip = true;
  /// Largest encoded subtree (bytes) the evaluator may buffer while its
  /// decision is pending; larger pending subtrees are deferred
  /// (skip-now-reread-later) when provably safe. UINT64_MAX never defers.
  uint64_t pending_buffer_budget = UINT64_MAX;
  /// Fetch-planner knobs of this serve (gap threshold, batch horizon).
  index::PlannerOptions planner;
  /// Entries of the private verified-digest cache this serve builds when
  /// its document version has no shared cache
  /// (DocumentConfig::shared_cache_capacity = 0); 0 disables bare
  /// re-reads. Ignored when the version snapshot carries a shared cache.
  size_t digest_cache_capacity =
      crypto::SoeDecryptor::kDefaultDigestCacheCapacity;
};

/// Cost-model counters of one serve (the quantities of the paper's
/// Section 5 / Figure 8 comparison).
struct ServeReport {
  std::string view;                      ///< Serialized authorized view.
  DriveStats drive;
  access::RuleEvaluator::Stats eval;
  uint64_t encoded_bytes = 0;            ///< Size of the encoded image.
  uint64_t wire_bytes = 0;               ///< Terminal→SOE channel traffic.
  uint64_t bytes_fetched = 0;            ///< Plaintext materialized.
  uint64_t requests = 0;                 ///< Batched terminal round trips.
  uint64_t segments = 0;                 ///< Ciphertext runs across batches.
  uint64_t bare_chunk_reads = 0;         ///< Chunk reads verified bare.
  uint64_t proof_hashes_shipped = 0;     ///< Merkle siblings the wire carried.
  uint64_t digest_bytes_shipped = 0;     ///< Encrypted ChunkDigest bytes.
  uint64_t gap_fragments_bridged = 0;    ///< Unneeded fragments coalesced in.
  uint64_t retries = 0;                  ///< Transport attempts beyond the 1st.
  uint64_t reconnects = 0;               ///< Connections re-established.
  crypto::SoeDecryptor::Counters soe;    ///< Decrypt/hash work in the SOE.
  crypto::VerifiedDigestCache::Stats digest_cache;  ///< Bare-read economics.
};

/// The pull endpoint of one serve: owns the per-request SOE chain
/// (decryptor, fetcher, navigator, reader) and yields the authorized view
/// one event at a time, fetching/decrypting lazily as it goes. Obtained
/// through server::DocumentService::OpenSession.
class ServeStream {
 public:
  /// Wires a complete per-serve SOE chain: geometry, key, expected version
  /// and shared digest cache come from `snapshot` (the version the serve
  /// was opened for), while batch reads go through `source` — the
  /// document's live terminal link or an attached transport. `source`
  /// must outlive the stream; `snapshot` need not.
  static Result<std::unique_ptr<ServeStream>> Open(
      const crypto::BatchSource* source, const DocumentState& snapshot,
      const std::vector<access::AccessRule>& rules,
      const ServeOptions& options);

  ServeStream(const ServeStream&) = delete;
  ServeStream& operator=(const ServeStream&) = delete;

  /// Next authorized-view event; `.end` true after the last one.
  Result<ViewItem> Next() { return reader_->Next(); }

  const DriveStats& drive() const { return reader_->stats(); }
  const access::RuleEvaluator::Stats& eval() const {
    return reader_->eval_stats();
  }
  const index::SecureFetcher& fetcher() const { return fetcher_; }
  const crypto::SoeDecryptor::Counters& soe() const {
    return soe_.counters();
  }
  crypto::VerifiedDigestCache::Stats cache_stats() const {
    return soe_.cache_stats();
  }

 private:
  ServeStream(const crypto::BatchSource* source, const DocumentState& snapshot,
              const ServeOptions& options)
      : soe_(snapshot.key, snapshot.store.layout(),
             snapshot.store.plaintext_size(), snapshot.store.chunk_count(),
             snapshot.store.version(), options.digest_cache_capacity,
             snapshot.cache, snapshot.store.backend()),
        fetcher_(source, snapshot.store.layout(),
                 snapshot.store.plaintext_size(),
                 snapshot.store.ciphertext().size(), &soe_, options.planner) {}

  crypto::SoeDecryptor soe_;
  index::SecureFetcher fetcher_;
  std::unique_ptr<index::DocumentNavigator> nav_;
  std::unique_ptr<AuthorizedViewReader> reader_;
};

/// Drains `stream` into a serialized view plus the cost-model counters of
/// the serve — the one reporting path the demo, bench, tests and the
/// server layer all share.
Result<ServeReport> DrainServeStream(ServeStream* stream);

}  // namespace csxa::pipeline

#endif  // CSXA_PIPELINE_SERVE_STREAM_H_

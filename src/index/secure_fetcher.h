#ifndef CSXA_INDEX_SECURE_FETCHER_H_
#define CSXA_INDEX_SECURE_FETCHER_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crypto/secure_store.h"
#include "index/decoder.h"
#include "index/fetch_planner.h"

namespace csxa::index {

/// Fetcher that materializes the encoded document lazily from the
/// untrusted terminal, in *batches*: each Ensure() asks the FetchPlanner
/// for the coalesced set of fragment runs worth pulling now (the missing
/// demand plus oracle-hinted look-ahead), issues them as one BatchRequest
/// round trip, has the SOE verify the response against per-chunk Merkle
/// material — or, for chunks whose digests the SOE already authenticated,
/// against the verified-digest cache with no material on the wire at all —
/// and decrypts the plaintext in place into the fixed buffer the
/// DocumentNavigator reads from.
///
/// Bytes the navigator skips over (pruned subtrees) are never transferred,
/// verified or decrypted — the property Section 5's cost model measures;
/// the skip oracle's HintExcluded() calls cancel them out of planned
/// batches before they are issued.
///
/// The terminal endpoint is a crypto::BatchSource, not necessarily one
/// immutable store: a server's document entry forwards to whatever store
/// version is current, so a session built for an older version fails
/// closed ("stale chunk digest") the moment its fetches cross a bump.
class SecureFetcher : public Fetcher {
 public:
  /// `source` and `soe` must outlive the fetcher. `layout`,
  /// `plaintext_size` and `ciphertext_size` describe the document version
  /// this fetcher was opened for.
  SecureFetcher(const crypto::BatchSource* source,
                const crypto::ChunkLayout& layout, uint64_t plaintext_size,
                uint64_t ciphertext_size, crypto::SoeDecryptor* soe,
                const PlannerOptions& planner_options = PlannerOptions());

  /// Convenience for the single-store case.
  SecureFetcher(const crypto::SecureDocumentStore* store,
                crypto::SoeDecryptor* soe,
                const PlannerOptions& planner_options = PlannerOptions())
      : SecureFetcher(store, store->layout(), store->plaintext_size(),
                      store->ciphertext().size(), soe, planner_options) {}

  /// The planner's proof-cost probe captures `this`.
  SecureFetcher(const SecureFetcher&) = delete;
  SecureFetcher& operator=(const SecureFetcher&) = delete;

  /// Verified view of the plaintext_size()-byte document image; valid only
  /// where Ensure() succeeded. The image is written exclusively by
  /// DecryptVerifiedBatch (the mint site), which is what entitles the
  /// fetcher to hold a standing common::VerifiedPlaintext over it.
  const common::VerifiedPlaintext& verified_view() const { return view_; }
  size_t size() const { return buffer_.size(); }

  Status Ensure(uint64_t begin, uint64_t end) override;
  /// Scans the valid fragments from `begin`, at most one batch horizon.
  uint64_t HeldEnd(uint64_t begin) const override;

  // Skip-oracle look-ahead (see FetchPlanner).
  void HintWanted(uint64_t begin, uint64_t end) override {
    planner_.HintWanted(begin, end);
  }
  void HintExcluded(uint64_t begin, uint64_t end) override {
    planner_.HintExcluded(begin, end);
  }
  void HintStreamAll() override { planner_.HintStreamAll(); }
  uint64_t preferred_alignment() const override { return fragment_size_; }

  /// Total bytes moved over the terminal->SOE channel so far.
  uint64_t wire_bytes() const { return wire_bytes_; }
  /// Plaintext bytes materialized so far (fragment granularity).
  uint64_t bytes_fetched() const override { return bytes_fetched_; }
  /// Number of batched round trips to the terminal.
  uint64_t requests() const { return requests_; }
  /// Contiguous ciphertext segments across all batches.
  uint64_t segments() const { return segments_; }
  /// Chunk reads served bare — ciphertext only, verified from the cache.
  uint64_t bare_chunk_reads() const { return bare_chunk_reads_; }
  /// Merkle sibling hashes the terminal actually shipped this serve — 0
  /// across a whole serve means every proof was trimmed away by the
  /// (shared) digest cache, the warm-serve ideal.
  uint64_t proof_hashes_shipped() const { return proof_hashes_shipped_; }
  /// Encrypted ChunkDigest bytes shipped this serve (DigestCipherBytes of
  /// the store's backend per cold chunk).
  uint64_t digest_bytes_shipped() const { return digest_bytes_shipped_; }
  /// Transport unreliability, attributed to this serve: attempts beyond
  /// the first and connections re-established since this fetcher opened.
  /// Deltas against the source's cumulative stats (a remote endpoint is
  /// shared across sessions); in-process sources report zeros.
  uint64_t retries() const {
    return source_->transport_stats().retries - transport_base_.retries;
  }
  uint64_t reconnects() const {
    return source_->transport_stats().reconnects - transport_base_.reconnects;
  }
  const FetchPlanner::Stats& planner_stats() const {
    return planner_.stats();
  }

 private:
  const crypto::BatchSource* source_;
  crypto::SoeDecryptor* soe_;
  uint32_t fragment_size_;
  uint32_t chunk_size_;
  FetchPlanner planner_;
  /// Prices coverage holes at their incremental proof cost: hashes the
  /// digest cache already holds are trimmed off the wire anyway, so they
  /// must not justify fetching skip-saved bytes.
  FetchPlanner::ProofCostProbe proof_probe_;
  std::vector<uint8_t> buffer_;
  /// Standing witness over buffer_ (declared after it: minted from its
  /// final, never-reallocated storage).
  common::VerifiedPlaintext view_;
  uint64_t padded_size_;
  std::vector<bool> fragment_valid_;
  uint64_t wire_bytes_ = 0;
  uint64_t bytes_fetched_ = 0;
  uint64_t requests_ = 0;
  uint64_t segments_ = 0;
  uint64_t bare_chunk_reads_ = 0;
  uint64_t proof_hashes_shipped_ = 0;
  uint64_t digest_bytes_shipped_ = 0;
  /// Source transport stats at construction (delta base for this serve).
  crypto::BatchSource::TransportStats transport_base_;
  /// One batch's request, chunk covers, claims and pinned chunks, reused
  /// across round trips so a round trip allocates nothing here.
  crypto::BatchRequest req_;
  std::vector<crypto::VerifiedDigestCache::Cover> covers_;
  std::vector<crypto::VerifiedDigestCache::Claim> claims_;
  std::vector<uint64_t> touched_;
};

}  // namespace csxa::index

#endif  // CSXA_INDEX_SECURE_FETCHER_H_

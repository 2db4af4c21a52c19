#ifndef CSXA_CRYPTO_SECURE_STORE_H_
#define CSXA_CRYPTO_SECURE_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/tainted.h"
#include "crypto/cipher_backend.h"
#include "crypto/digest_cache.h"
#include "crypto/merkle.h"
#include "crypto/sha1.h"

namespace csxa::crypto {

/// Chunk/fragment/block layout of Appendix A: the document is split into
/// chunks (integrity-checking unit, sized to SOE memory), divided into
/// fragments (random-access unit inside a chunk), subdivided into cipher
/// blocks (8 bytes for the paper's 3DES, 16 for the AES backend).
/// fragment_size must divide chunk_size, both multiples of the cipher
/// block, fragments-per-chunk a power of two.
struct ChunkLayout {
  uint32_t chunk_size = 2048;
  uint32_t fragment_size = 256;

  uint32_t fragments_per_chunk() const { return chunk_size / fragment_size; }
  /// `block_size` is the cipher backend's block (8 unless stated).
  Status Validate(uint32_t block_size = 8) const;
};

/// Ciphertext size of one encrypted ChunkDigest under cipher block size
/// `block_size`: the 24-byte digest plaintext (20-byte bound root hash +
/// 4-byte version) zero-padded to a whole block — 24 bytes for 3DES,
/// 32 for AES.
inline uint32_t DigestCipherBytes(uint32_t block_size) {
  return (24 + block_size - 1) / block_size * block_size;
}

/// Cipher blocks one encrypted ChunkDigest occupies — the stride of the
/// digest position space (digests live beyond the document's blocks so
/// their ciphertext can never be replayed as content).
inline uint32_t DigestBlocks(uint32_t block_size) {
  return DigestCipherBytes(block_size) / block_size;
}

/// One terminal round trip of the *batched* verified-fetch protocol: the
/// SOE's fetch planner coalesces every range it needs soon into one
/// request of fragment-aligned runs, and names the chunks whose digests it
/// has already authenticated (`bare_chunks`) so the terminal ships their
/// ciphertext without any integrity material at all.
struct BatchRequest {
  /// Byte range [begin, end) of ciphertext; begin must sit on a fragment
  /// boundary, end on a fragment boundary or the document end. Sorted,
  /// disjoint, non-adjacent (adjacent ranges belong coalesced).
  struct Run {
    uint64_t begin = 0;
    uint64_t end = 0;
  };
  std::vector<Run> runs;
  /// Chunks the SOE can verify from its digest cache: ship no sibling
  /// hashes and no encrypted ChunkDigest for these. (A terminal ignoring
  /// the hint only wastes wire; omitting material that was *not* waived
  /// fails verification.)
  std::vector<uint64_t> bare_chunks;

  /// Proof trimming: per chunk, the Merkle nodes the SOE already holds
  /// authenticated copies of (bit = VerifiedDigestCache::FlatIndex). The
  /// terminal omits those sibling hashes from the chunk's proof, and omits
  /// the encrypted ChunkDigest entirely when `root_known` — so across a
  /// serve, every hash of a chunk's tree crosses the wire at most once.
  /// Claiming a node one does not hold only makes verification fail
  /// (missing sibling); it can never make tampered data pass.
  struct ChunkHint {
    uint64_t chunk = 0;
    uint64_t known_nodes = 0;
    bool root_known = false;
  };
  std::vector<ChunkHint> hints;
};

/// Response to a BatchRequest: one ciphertext segment per run, plus chunk
/// integrity material — *once per chunk per batch*, shared by every
/// fragment of the batch that falls into the chunk, and omitted entirely
/// for bare chunks. Fragment alignment makes intermediate hash states
/// unnecessary (each leaf hash restarts at a fragment boundary), so the
/// proof overhead is at most one sibling set and one digest per chunk per
/// batch — and zero for cache-hit re-reads.
struct BatchResponse {
  struct Segment {
    uint64_t begin = 0;  ///< Absolute byte offset of ciphertext[0].
    /// Terminal bytes: typestate-tainted until the Merkle chain vouches.
    common::UnverifiedBytes ciphertext;
  };
  std::vector<Segment> segments;  ///< Parallel to BatchRequest::runs.

  /// Integrity material of one chunk, following the Merkle-hash-tree
  /// protocol of Figure F1: the fragment interval the segment covers in
  /// the chunk, the sibling hashes needed to rebuild its root, and the
  /// chunk's encrypted ChunkDigest.
  struct ChunkMaterial {
    uint64_t chunk_index = 0;
    uint32_t first_fragment = 0;  ///< Fragment range covered by ciphertext.
    uint32_t last_fragment = 0;
    std::vector<ProofNode> proof;  ///< Sibling hashes (trimmed by hints).
    /// Encrypted ChunkDigest (DigestCipherBytes of the store's backend);
    /// empty when the request's hint said the root is already known.
    std::vector<uint8_t> encrypted_digest;
  };
  /// Material for non-bare chunks, in ascending (segment, chunk) order.
  /// When two runs of one batch land in the same chunk, the chunk appears
  /// once per covered fragment range (rare; the planner merges same-chunk
  /// runs unless an already-valid fragment sits between them), but its
  /// digest is decrypted at most once per batch.
  std::vector<ChunkMaterial> chunks;

  /// Bytes moved over the terminal->SOE channel (ciphertext + sibling
  /// hashes + digests), for the cost model.
  uint64_t WireBytes() const;
};

/// The terminal round-trip endpoint of the batched protocol, abstracted so
/// an SOE-side fetcher need not hold a direct pointer to one immutable
/// store: a server's document entry implements this by forwarding to its
/// *current* store behind a lock, which is what makes a version bump
/// visible (and rejectable) to sessions opened before it.
class BatchSource {
 public:
  /// Transport-side accounting a source may expose (zeros for in-process
  /// sources, where a round trip cannot fail): attempts beyond the first
  /// per request and connections re-established after a mid-stream
  /// failure. The fetcher snapshots these into its own counters so cost
  /// reports price unreliability alongside wire bytes.
  struct TransportStats {
    uint64_t retries = 0;
    uint64_t reconnects = 0;
    /// What one round trip on this link is worth in bytes: its
    /// bandwidth-delay product, the bytes the link could have delivered
    /// in the time a round trip's latency costs. The fetch planner keeps
    /// readahead up to this many bytes across skips. 0 in process (a
    /// round trip costs no link time) and on a link not yet measured;
    /// UINT64_MAX where bytes cost nothing next to the latency.
    uint64_t round_trip_price_bytes = 0;
  };

  virtual ~BatchSource() = default;
  virtual Result<BatchResponse> ReadBatch(const BatchRequest& request) const = 0;
  virtual TransportStats transport_stats() const { return {}; }
};

/// A terminal that answers into caller-owned storage: what a
/// net::TerminalServer registers, so a socket request costs one decode,
/// one fill and one encode into buffers the connection reuses.
class BatchTerminal : public BatchSource {
 public:
  /// Answers `request` into `response`, reusing its segment, proof and
  /// digest storage. On error `response` holds no usable result.
  virtual Status FillBatch(const BatchRequest& request,
                           BatchResponse* response) const = 0;
  Result<BatchResponse> ReadBatch(const BatchRequest& request) const override {
    BatchResponse response;
    CSXA_RETURN_NOT_OK(FillBatch(request, &response));
    return response;
  }
};

/// Terminal-side store of an encrypted document: position-mixed ECB
/// ciphertext under a pluggable cipher backend (paper-faithful 3DES by
/// default) plus one encrypted Merkle ChunkDigest per chunk. The terminal
/// needs no key; it only stores and serves. Tampering hooks let tests
/// emulate the attacks of Section 6.
class SecureDocumentStore : public BatchTerminal {
 public:
  /// Encrypts `plaintext` (zero-padded to the backend's block) in one
  /// whole-segment backend call and builds the chunk digests. The
  /// ChunkDigest binds the chunk index (preventing whole-chunk
  /// transposition) and the document `version` (Section 6: versioning
  /// counters replay of stale document states — an SOE expecting version v
  /// rejects digests sealed for v-1), and is encrypted with the document
  /// key so the terminal cannot re-derive digests for tampered data.
  static Result<SecureDocumentStore> Build(
      const std::vector<uint8_t>& plaintext, const TripleDes::Key& key,
      const ChunkLayout& layout, uint32_t version = 0,
      CipherBackendKind backend = CipherBackendKind::k3Des);

  uint64_t plaintext_size() const { return plaintext_size_; }
  const ChunkLayout& layout() const { return layout_; }
  uint64_t chunk_count() const { return digests_.size(); }
  uint32_t version() const { return version_; }
  CipherBackendKind backend() const { return backend_; }
  uint32_t block_size() const { return block_size_; }
  const std::vector<uint8_t>& ciphertext() const { return ciphertext_; }

  /// Serves a coalesced batch of fragment-aligned runs in one round trip
  /// (see BatchRequest/BatchResponse). Integrity material is emitted per
  /// chunk, not per run, and suppressed for the chunks the request waived.
  /// Terminal-side hashing is over ciphertext (so no key is needed),
  /// matching Section 6's requirement that the terminal can cooperate in
  /// integrity checking. A run ending past this store, or at an unaligned
  /// end that is not the store's end, comes from a session built for
  /// another version and fails closed as IntegrityError; any other
  /// malformed run is InvalidArgument.
  Status FillBatch(const BatchRequest& request,
                   BatchResponse* response) const override;

  /// -- Attack emulation (tests) --------------------------------------
  /// Flips bits of one ciphertext byte (random modification attack).
  void TamperByte(uint64_t pos, uint8_t xor_mask);
  /// Swaps two cipher-block-sized ciphertext blocks (substitution attack).
  void SwapBlocks(uint64_t block_a, uint64_t block_b);
  /// Replaces a chunk's encrypted digest with another chunk's (digest
  /// transposition attack).
  void SwapChunkDigests(uint64_t chunk_a, uint64_t chunk_b);
  /// Replaces one chunk (ciphertext + digest) with the same chunk of an
  /// older store state (replay attack: a terminal serving a stale —
  /// internally consistent — version of updated data).
  void ReplayChunkFrom(const SecureDocumentStore& old, uint64_t chunk);

 private:
  ChunkLayout layout_;
  uint64_t plaintext_size_ = 0;
  uint32_t version_ = 0;
  CipherBackendKind backend_ = CipherBackendKind::k3Des;
  uint32_t block_size_ = 8;
  std::vector<uint8_t> ciphertext_;
  std::vector<std::vector<uint8_t>> digests_;  // encrypted ChunkDigests
};

/// SOE-side verifier/decryptor: holds the key, recomputes Merkle roots from
/// BatchResponses, compares them to the decrypted ChunkDigests, and only
/// then releases plaintext.
class SoeDecryptor {
 public:
  /// `expected_version` is the document version the SOE believes current
  /// (delivered out of band with the key); a digest sealed for any other
  /// version is rejected as a replayed stale state.
  /// `digest_cache_capacity` bounds the verified-digest cache (entries,
  /// i.e. chunks); 0 disables bare re-reads entirely.
  /// `shared_cache`, when set, replaces the private per-serve cache with a
  /// cross-serve shared one (the crypto layer holds it behind this handle
  /// only): it must be stamped with `expected_version` — a mismatch would
  /// let one version's authenticated hashes vouch for another's bytes.
  /// Passing a mismatched handle is a hard error: every DecryptVerifiedBatch
  /// call on the decryptor fails with a fixed IntegrityError (the old
  /// silent fall-back to a private cache hid wiring bugs of exactly the
  /// replay class the version stamp exists to stop).
  /// `backend` must be the cipher backend the store was built with.
  SoeDecryptor(const TripleDes::Key& key, ChunkLayout layout,
               uint64_t plaintext_size, uint64_t chunk_count,
               uint32_t expected_version = 0,
               size_t digest_cache_capacity = kDefaultDigestCacheCapacity,
               std::shared_ptr<VerifiedDigestCache> shared_cache = nullptr,
               CipherBackendKind backend = CipherBackendKind::k3Des);

  static constexpr size_t kDefaultDigestCacheCapacity = 32;

  /// True when the digest cache holds enough authenticated material to
  /// verify fragments [first, last] of `chunk` without any shipped
  /// integrity material — the fetcher uses this to waive chunks in a
  /// BatchRequest.
  bool CanVerifyBare(uint64_t chunk, uint32_t first, uint32_t last) const {
    return cache_->CanVerifyBare(chunk, first, last);
  }

  /// Proof-trimming hint for `chunk` (see BatchRequest::ChunkHint): which
  /// tree nodes the cache already holds, and whether the root itself is
  /// authenticated (digest transfer and decryption can be waived).
  BatchRequest::ChunkHint CacheHintFor(uint64_t chunk) const {
    return {chunk, cache_->KnownMask(chunk), cache_->RootKnown(chunk)};
  }

  /// Sibling hashes a proof for fragments [first, last] of `chunk` would
  /// still have to ship given the cache (the planner's proof-cost probe).
  uint64_t MissingProofNodes(uint64_t chunk, uint32_t first,
                             uint32_t last) const {
    return cache_->MissingProofNodes(chunk, first, last);
  }

  /// Pins the batch's chunks (`chunks`, the distinct chunks of `covers`)
  /// against eviction for the returned guard's lifetime and, in the same
  /// critical section, fills `claims` with each chunk's waiver or
  /// trimming hint (VerifiedDigestCache::PinAndClaim). The fetcher pins
  /// *before* the probes: with the cache shared across serves, a
  /// concurrent session's Record() could otherwise evict an entry between
  /// the probe and the verification that depends on it, failing an honest
  /// response.
  VerifiedDigestCache::PinScope ClaimBatch(
      std::vector<uint64_t> chunks,
      const std::vector<VerifiedDigestCache::Cover>& covers,
      std::vector<VerifiedDigestCache::Claim>* claims) {
    return cache_->PinAndClaim(std::move(chunks), covers, claims);
  }

  /// Verifies and decrypts a whole batch: each segment's chunks are
  /// checked against shipped material (then recorded in the digest cache)
  /// or — for waived chunks — against the cache's authenticated hashes.
  /// Plaintext is written in place into `out` (the document buffer of
  /// `out_size` >= plaintext_size bytes) at each segment's offset; each
  /// verified segment is handed to the cipher backend as one whole block
  /// run, so backends pipeline across blocks. Any mismatch fails the
  /// whole batch with IntegrityError before a single unverified byte is
  /// released. Every chunk the request waives or hints stays pinned until
  /// verification ends: by `held` (the batch's ClaimBatch guard) where it
  /// covers them all, else by a pin taken here.
  Status DecryptVerifiedBatch(
      const BatchRequest& request, const BatchResponse& response,
      uint8_t* out, size_t out_size,
      const VerifiedDigestCache::PinScope* held = nullptr);

  /// Mints the typestate witness for a buffer that is written exclusively
  /// by this decryptor's DecryptVerifiedBatch (the SecureFetcher's
  /// document image: private buffer, every write goes through the batch
  /// verify-then-decrypt path; validity per range still follows Ensure()).
  /// Feeding anything tainted here is laundering — tools/csxa_lint.py
  /// treats VerifiedViewOf as a taint sink (check: taint-dataflow).
  common::VerifiedPlaintext VerifiedViewOf(const uint8_t* data,
                                           size_t size) const {
    return common::VerifiedPlaintext(common::VerifyPass{}, data, size);
  }

  /// Cumulative work counters (fed to the cost model).
  struct Counters {
    uint64_t bytes_decrypted = 0;   ///< Payload blocks decrypted.
    uint64_t digest_bytes_decrypted = 0;
    uint64_t bytes_hashed = 0;      ///< Ciphertext bytes hashed in the SOE.
    /// Merkle interior-node hashes computed to recombine a root (0 for a
    /// bare read whose leaves all matched the cache).
    uint64_t hash_combines = 0;
    uint64_t decrypt_ns = 0;        ///< Wall clock inside block decryption.
    uint64_t hash_ns = 0;           ///< Wall clock inside SHA-1 hashing.
  };
  const Counters& counters() const { return counters_; }
  /// Snapshot: with a shared cache these are cross-serve aggregates.
  VerifiedDigestCache::Stats cache_stats() const { return cache_->stats(); }

  uint32_t block_size() const { return backend_->block_size(); }

  /// Computes what a chunk's encrypted digest must be; exposed so that
  /// Build and tests share one definition. The 24-byte plaintext is the
  /// index-bound root hash (20 bytes) followed by the big-endian document
  /// version (4 bytes), zero-padded to the backend's block.
  static std::vector<uint8_t> SealDigest(const CipherBackend& backend,
                                         uint64_t chunk_index,
                                         const Sha1Digest& root,
                                         uint64_t total_blocks,
                                         uint32_t version);

 private:
  /// DecryptVerifiedBatch's check of one chunk with shipped material:
  /// recomputes the root from `leaves` (fragments [first, last]) plus
  /// `proof`, authenticates it against the encrypted digest (decrypting it
  /// at most once per batch via `digest_memo`), and records the
  /// authenticated material in the cache.
  Status VerifyChunkAgainstMaterial(
      const BatchResponse::ChunkMaterial& mat, uint64_t chunk,
      const std::vector<Sha1Digest>& leaves,
      std::vector<std::pair<uint64_t, Sha1Digest>>* digest_memo);

  std::unique_ptr<const CipherBackend> backend_;
  ChunkLayout layout_;
  uint64_t plaintext_size_;
  uint64_t chunk_count_;
  uint32_t expected_version_;
  /// Private per-serve cache, or a handle on the service's shared one —
  /// same trust chain either way (writes happen only post-verification).
  std::shared_ptr<VerifiedDigestCache> cache_;
  /// Poison status set at construction when the shared cache handle is
  /// stamped for another version; fails every decrypt entry point.
  Status config_error_ = Status::OK();
  Counters counters_;
  /// One chunk's recomputed leaf hashes, reused across batches.
  std::vector<Sha1Digest> leaves_;
};

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_SECURE_STORE_H_

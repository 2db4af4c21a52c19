#ifndef CSXA_CRYPTO_DIGEST_CACHE_H_
#define CSXA_CRYPTO_DIGEST_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/tainted.h"
#include "common/thread_annotations.h"
#include "crypto/merkle.h"
#include "crypto/sha1.h"

namespace csxa::crypto {

/// Small, bounded SOE-side cache of *already authenticated* Merkle material,
/// keyed by chunk index. Once a chunk has been verified the classic way
/// (leaf hashes + sibling proof + decrypted ChunkDigest), every hash the SOE
/// computed or received en route is as trustworthy as the digest itself —
/// the cache keeps those node hashes so that a later read touching the same
/// chunk (a deferral re-read, a hot chunk's next fragment) can be served
/// *bare*: ciphertext only, no sibling hashes on the wire, no ChunkDigest
/// transfer or decryption. The re-read is verified by recomputing the leaf
/// hashes of the shipped fragments. When every one of those leaves is
/// already cached (a warm chunk), each recomputed leaf is compared with its
/// cached leaf (MatchLeaves) and nothing else is hashed. Otherwise — an
/// unknown leaf, or a leaf that differs — the leaves are combined with
/// cached sibling hashes up to the cached, authenticated root.
///
/// Security argument: entries are written exclusively after a full
/// digest-chain verification (Record demands a VerifyPass), so every cached
/// hash is collision-bound to the ciphertext the document owner sealed.
/// In particular a cached leaf was written only after it recombined to the
/// authenticated root, and the cached interior nodes are derived from such
/// leaves or lie on their verified paths. A recomputed leaf equal to its
/// cached copy would therefore recombine to that same root: comparing
/// leaves is as strong as recombining, and only skips re-deriving known
/// nodes. Recombination still runs whenever a shipped fragment's leaf is
/// not cached (a fragment of a partly cached chunk read for the first
/// time) or differs from the cached leaf. A terminal tampering with
/// re-read ciphertext changes the recomputed leaf hash, the comparison
/// fails, the recombined root diverges from the cached one, and the read
/// is rejected — the cache narrows the *wire format*, never the trust
/// chain. One entry is ~2·m hashes for m fragments per chunk; a per-serve
/// cache holds a few dozen, a shared one sized to a whole document holds
/// every chunk. Lookups go through a chunk index, so their cost does not
/// grow with capacity; eviction (only when full) scans for the least
/// recently used unpinned entry and only costs a fallback to the classic
/// proof-carrying read.
///
/// Sharing across serves: every method is internally synchronized, so one
/// cache instance can back many concurrent sessions of the *same document
/// version* — whoever verifies a chunk first pays the material transfer,
/// everyone else reads bare. One instance is bound to exactly one
/// (document, version) pair (`version()`); a version bump means a fresh
/// instance, never a flush, so stale-version hashes can never vouch for
/// bumped content (replay protection is the decryptor's version check plus
/// this keying). Sharing leaks nothing between subjects: cached hashes
/// authenticate ciphertext the terminal already serves to anyone.
class VerifiedDigestCache {
 public:
  /// `fragments_per_chunk` must be the layout's (power-of-two) value.
  /// `capacity` 0 disables the cache entirely (every lookup misses).
  /// `version` stamps the document version this instance vouches for.
  VerifiedDigestCache(uint32_t fragments_per_chunk, size_t capacity,
                      uint32_t version = 0);

  /// True when the cache holds every sibling hash a proof for leaves
  /// [first, last] of `chunk` would contain, plus the root — i.e. the
  /// chunk can be re-read bare.
  bool CanVerifyBare(uint64_t chunk, uint32_t first, uint32_t last) const;

  /// The cached sibling hashes for [first, last], in ProofForRange shape.
  /// Only valid when CanVerifyBare() returned true.
  std::vector<ProofNode> ProofFor(uint64_t chunk, uint32_t first,
                                  uint32_t last) const;

  /// Copies the authenticated root of `chunk` into `*out`; false when the
  /// chunk is not cached. (By value: a pointer into an entry could dangle
  /// the moment another serve's Record() evicts it.)
  bool Root(uint64_t chunk, Sha1Digest* out) const;
  bool RootKnown(uint64_t chunk) const;

  /// Copies the cached node at (level, index); false when unknown.
  bool Node(uint64_t chunk, int level, uint64_t index, Sha1Digest* out) const;

  /// Bitmask of known nodes (bit = FlatIndex(level, index)), for the
  /// proof-trimming hint of a BatchRequest: the terminal omits every
  /// sibling hash the SOE already holds. 0 when the chunk is uncached or
  /// the tree exceeds 64 nodes (no trimming, only wasted wire).
  uint64_t KnownMask(uint64_t chunk) const;

  /// Number of sibling hashes a proof for fragments [first, last] of
  /// `chunk` would have to *ship* given what is already cached: the full
  /// ProofForRange count on a cold chunk, only the unknown nodes on a warm
  /// one, 0 when the range verifies bare. The fetch planner's proof-cost
  /// probe — its chunk-completion arithmetic must price the post-trimming
  /// wire, not the cold-cache worst case.
  uint64_t MissingProofNodes(uint64_t chunk, uint32_t first,
                             uint32_t last) const;

  /// Level-major flat index shared by KnownMask and the terminal's
  /// trimming: leaves first, then each level up, root last.
  static uint64_t FlatIndex(uint32_t fragments_per_chunk, int level,
                            uint64_t index);

  /// Scoped pin: while alive, the named chunks cannot be evicted (a
  /// Record() of a new chunk that would displace a pinned entry becomes a
  /// no-op instead). The fetcher pins every chunk of a batch before
  /// probing the cache for waivers/trimming hints, so no concurrent
  /// serve's insertions can invalidate claims between request-building and
  /// verification. Pins from concurrent scopes accumulate (multiset).
  /// Movable so a batch can carry its pin across the round trip.
  class PinScope {
   public:
    PinScope() = default;
    PinScope(VerifiedDigestCache* cache, std::vector<uint64_t> chunks)
        : cache_(cache), chunks_(std::move(chunks)) {
      if (cache_ != nullptr) cache_->Pin(chunks_);
    }
    ~PinScope() { Release(); }
    PinScope(PinScope&& other) noexcept
        : cache_(other.cache_), chunks_(std::move(other.chunks_)) {
      other.cache_ = nullptr;
    }
    PinScope& operator=(PinScope&& other) noexcept {
      if (this != &other) {
        Release();
        cache_ = other.cache_;
        chunks_ = std::move(other.chunks_);
        other.cache_ = nullptr;
      }
      return *this;
    }
    PinScope(const PinScope&) = delete;
    PinScope& operator=(const PinScope&) = delete;

    /// True when this scope pins `chunk` in `cache`.
    bool Covers(const VerifiedDigestCache* cache, uint64_t chunk) const {
      return cache_ != nullptr && cache_ == cache &&
             std::find(chunks_.begin(), chunks_.end(), chunk) !=
                 chunks_.end();
    }

    /// Unpins now and hands the chunk list back, so a caller that pins
    /// once per batch can reuse its storage.
    std::vector<uint64_t> Release() {
      if (cache_ != nullptr) cache_->Unpin(chunks_);
      cache_ = nullptr;
      return std::move(chunks_);
    }

   private:
    friend class VerifiedDigestCache;
    struct Adopt {};
    /// Takes over pins the cache already counted for `chunks`.
    PinScope(VerifiedDigestCache* cache, std::vector<uint64_t> chunks, Adopt)
        : cache_(cache), chunks_(std::move(chunks)) {}

    VerifiedDigestCache* cache_ = nullptr;
    std::vector<uint64_t> chunks_;
  };

  /// One chunk's covered fragment interval [first, last] in a batch.
  struct Cover {
    uint64_t chunk = 0;
    uint32_t first = 0;
    uint32_t last = 0;
  };
  /// What a batch may claim for one chunk: a waiver when every covered
  /// range verifies bare, else the proof-trimming hint (KnownMask and
  /// whether the root is cached).
  struct Claim {
    uint64_t chunk = 0;
    bool bare = false;
    uint64_t known_nodes = 0;
    bool root_known = false;
  };

  /// One batch's claims in one critical section: pins `chunks` (the
  /// distinct chunks of `covers`), then probes CanVerifyBare for every
  /// cover in order and, for each chunk that is not bare, KnownMask and
  /// RootKnown — the probes, and so the LRU touches, a caller pinning and
  /// probing one call at a time would make. `covers` are sorted by chunk;
  /// `claims` gets one entry per distinct chunk. The returned scope holds
  /// the pins.
  PinScope PinAndClaim(std::vector<uint64_t> chunks,
                       const std::vector<Cover>& covers,
                       std::vector<Claim>* claims) CSXA_EXCLUDES(mu_);

  /// Records authenticated material after a successful verification: the
  /// recomputed leaf hashes of [first, first + leaves.size()), the sibling
  /// hashes that were shipped, and the root the digest confirmed. Interior
  /// nodes derivable from known children are filled in eagerly, so later
  /// ranges need no hashes the cache cannot produce.
  ///
  /// The common::VerifyPass passkey makes "exclusively after a full
  /// digest-chain verification" (the cache's entire security argument,
  /// above) a compile-time fact: only the SoeDecryptor's verification path
  /// can mint one, so no other code can write this cache.
  void Record(common::VerifyPass, uint64_t chunk, const Sha1Digest& root,
              uint32_t first, const std::vector<Sha1Digest>& leaves,
              const std::vector<ProofNode>& proof);

  struct Stats {
    uint64_t bare_hits = 0;    ///< Chunk reads actually verified bare.
    uint64_t misses = 0;       ///< Material-path verifications of uncached chunks.
    uint64_t records = 0;      ///< Verified chunks recorded.
    uint64_t evictions = 0;    ///< LRU entries displaced.
  };
  /// Snapshot (by value: the shared instance keeps mutating).
  Stats stats() const;
  size_t capacity() const { return capacity_; }
  uint32_t version() const { return version_; }
  /// Warm bare-read check, in one locked visit: true when every leaf of
  /// [first, first + leaves.size()) of `chunk` is cached and equal to the
  /// recomputed `leaves`, and then counts the bare hit. False, counting
  /// nothing, on any unknown or differing leaf; the caller then
  /// recombines to the cached root, which rejects a tampered read.
  bool MatchLeaves(uint64_t chunk, uint32_t first,
                   const std::vector<Sha1Digest>& leaves) const;

  /// Verification-time accounting (CanVerifyBare itself is a pure probe).
  void RecordBareHit() const;
  void RecordMiss() const;

 private:
  friend class PinScope;

  struct Slot;
  struct Entry {
    uint64_t chunk = 0;
    mutable uint64_t last_use = 0;  ///< LRU clock; touched on const reads.
    Slot* slot = nullptr;  ///< This chunk's index record (stable address).
    Sha1Digest root{};
    /// Flat binary tree, level-major: nodes_[0..m) = leaves, then m/2
    /// level-1 nodes, ..., ending with the root at nodes_[2m-2].
    std::vector<Sha1Digest> nodes;
    std::vector<uint8_t> known;
  };
  static constexpr uint32_t kNoEntry = UINT32_MAX;
  /// Index record of one chunk: its entry, if resident, and how many live
  /// pins name it. A pinned chunk keeps its record while not resident, so
  /// a Record() that brings it in finds it shielded.
  struct Slot {
    uint32_t entry = kNoEntry;
    uint32_t pins = 0;
  };

  void Pin(const std::vector<uint64_t>& chunks) CSXA_EXCLUDES(mu_);
  void Unpin(const std::vector<uint64_t>& chunks) CSXA_EXCLUDES(mu_);

  // Lock-held internals: the annotations make "mu_ must be held by the
  // caller" a compile-time obligation under clang, not a comment.
  size_t NodeIndex(int level, uint64_t index) const;  // Pure geometry.
  void PinLocked(const std::vector<uint64_t>& chunks) CSXA_REQUIRES(mu_);
  const Entry* Find(uint64_t chunk) const CSXA_REQUIRES(mu_);
  bool CanVerifyBareLocked(uint64_t chunk, uint32_t first,
                           uint32_t last) const CSXA_REQUIRES(mu_);
  uint64_t KnownMaskLocked(uint64_t chunk) const CSXA_REQUIRES(mu_);
  /// Find or insert-with-eviction; nullptr when every evictable slot is
  /// pinned (the caller simply skips recording).
  Entry* Obtain(uint64_t chunk) CSXA_REQUIRES(mu_);
  void FillIn(Entry* e) CSXA_REQUIRES(mu_);

  // Immutable after construction — readable without the lock.
  uint32_t frags_;
  int levels_;  ///< log2(frags_) + 1.
  size_t capacity_;
  uint32_t version_;

  mutable Mutex mu_;
  mutable uint64_t clock_ CSXA_GUARDED_BY(mu_) = 0;
  std::vector<Entry> entries_ CSXA_GUARDED_BY(mu_);
  /// chunk -> entry and pin count: every lookup is one hash probe. Node
  /// addresses are stable across rehashing, so entries point back at
  /// their records.
  std::unordered_map<uint64_t, Slot> index_ CSXA_GUARDED_BY(mu_);
  mutable Stats stats_ CSXA_GUARDED_BY(mu_);
};

}  // namespace csxa::crypto

#endif  // CSXA_CRYPTO_DIGEST_CACHE_H_

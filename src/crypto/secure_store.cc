#include "crypto/secure_store.h"

#include <algorithm>
#include <cstring>

#include "common/clock.h"

namespace csxa::crypto {

namespace {

bool IsPowerOfTwo(uint32_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Rebuilds one chunk's Merkle tree over ciphertext (the terminal-side
/// hashing of Figure F1; a real terminal would cache these trees).
MerkleTree BuildChunkTree(const std::vector<uint8_t>& ciphertext,
                          uint64_t chunk_begin, uint64_t chunk_end,
                          uint32_t frags, uint32_t fragment_size) {
  std::vector<Sha1Digest> leaves;
  leaves.reserve(frags);
  for (uint32_t f = 0; f < frags; ++f) {
    uint64_t fb = chunk_begin + uint64_t{f} * fragment_size;
    if (fb >= chunk_end) {
      leaves.push_back(MerkleTree::EmptyLeaf());
      continue;
    }
    uint64_t fe = std::min<uint64_t>(fb + fragment_size, chunk_end);
    leaves.push_back(Sha1::Hash(ciphertext.data() + fb, fe - fb));
  }
  return MerkleTree::Build(std::move(leaves));
}

Sha1Digest BindChunkIndex(uint64_t chunk_index, const Sha1Digest& root) {
  // ChunkDigest = SHA1(chunk_index || merkle_root): the chunk identifier
  // "reflecting its position in the document" (Section 6), which makes
  // whole-chunk substitution detectable.
  uint8_t prefix[8];
  for (int i = 0; i < 8; ++i) {
    prefix[i] = static_cast<uint8_t>(chunk_index >> (56 - 8 * i));
  }
  Sha1 hasher;
  hasher.Update(prefix, 8);
  hasher.Update(root.data(), root.size());
  return hasher.Finish();
}

}  // namespace

Status ChunkLayout::Validate(uint32_t block_size) const {
  if (chunk_size == 0 || fragment_size == 0) {
    return Status::InvalidArgument("chunk/fragment size must be positive");
  }
  if (chunk_size % block_size != 0 || fragment_size % block_size != 0) {
    return Status::InvalidArgument(
        "chunk and fragment sizes must be multiples of the cipher block (" +
        std::to_string(block_size) + " bytes)");
  }
  if (chunk_size % fragment_size != 0) {
    return Status::InvalidArgument("fragment size must divide chunk size");
  }
  if (!IsPowerOfTwo(fragments_per_chunk())) {
    return Status::InvalidArgument(
        "fragments per chunk must be a power of two (Merkle tree shape)");
  }
  return Status::OK();
}

std::vector<uint8_t> SoeDecryptor::SealDigest(const CipherBackend& backend,
                                              uint64_t chunk_index,
                                              const Sha1Digest& root,
                                              uint64_t total_blocks,
                                              uint32_t version) {
  const uint32_t bs = backend.block_size();
  Sha1Digest bound = BindChunkIndex(chunk_index, root);
  std::vector<uint8_t> padded(DigestCipherBytes(bs), 0);
  std::copy(bound.begin(), bound.end(), padded.begin());
  // The document version follows the hash: replaying a chunk (and its
  // self-consistent digest) from a stale store state decrypts to the old
  // version number and is rejected.
  for (int i = 0; i < 4; ++i) {
    padded[20 + i] = static_cast<uint8_t>(version >> (24 - 8 * i));
  }
  // Digests live in their own position space beyond the document blocks so
  // that a digest ciphertext can never be replayed as document content or
  // as another chunk's digest.
  backend.EncryptSegment(padded.data(), padded.size(),
                         total_blocks + chunk_index * DigestBlocks(bs));
  return padded;
}

Result<SecureDocumentStore> SecureDocumentStore::Build(
    const std::vector<uint8_t>& plaintext, const TripleDes::Key& key,
    const ChunkLayout& layout, uint32_t version, CipherBackendKind backend) {
  std::unique_ptr<const CipherBackend> cipher = MakeCipherBackend(backend, key);
  const uint32_t bs = cipher->block_size();
  CSXA_RETURN_NOT_OK(layout.Validate(bs));
  SecureDocumentStore store;
  store.layout_ = layout;
  store.plaintext_size_ = plaintext.size();
  store.version_ = version;
  store.backend_ = backend;
  store.block_size_ = bs;

  // Zero-pad to the cipher block and encrypt the document in one
  // whole-segment call (the backend pipelines across blocks).
  store.ciphertext_ = plaintext;
  store.ciphertext_.resize((plaintext.size() + bs - 1) / bs * bs, 0);
  cipher->EncryptSegment(store.ciphertext_.data(), store.ciphertext_.size(),
                         0);

  const uint64_t size = store.ciphertext_.size();
  const uint64_t total_blocks = size / bs;
  const uint64_t chunk_count = (size + layout.chunk_size - 1) / layout.chunk_size;
  const uint32_t frags = layout.fragments_per_chunk();
  store.digests_.reserve(chunk_count);
  for (uint64_t c = 0; c < chunk_count; ++c) {
    uint64_t chunk_begin = c * layout.chunk_size;
    uint64_t chunk_end = std::min<uint64_t>(chunk_begin + layout.chunk_size,
                                            size);
    MerkleTree tree = BuildChunkTree(store.ciphertext_, chunk_begin,
                                     chunk_end, frags, layout.fragment_size);
    store.digests_.push_back(SoeDecryptor::SealDigest(*cipher, c, tree.root(),
                                                      total_blocks, version));
  }
  return store;
}

uint64_t BatchResponse::WireBytes() const {
  uint64_t bytes = 0;
  for (const Segment& seg : segments) bytes += seg.ciphertext.size();
  for (const ChunkMaterial& chunk : chunks) {
    bytes += chunk.proof.size() * sizeof(Sha1Digest);
    bytes += chunk.encrypted_digest.size();
  }
  return bytes;
}

Status SecureDocumentStore::FillBatch(const BatchRequest& request,
                                      BatchResponse* resp) const {
  const uint64_t size = ciphertext_.size();
  const uint32_t frags = layout_.fragments_per_chunk();
  auto is_bare = [&request](uint64_t c) {
    return std::find(request.bare_chunks.begin(), request.bare_chunks.end(),
                     c) != request.bare_chunks.end();
  };
  resp->segments.resize(request.runs.size());
  size_t chunks = 0;  // Material entries filled so far.
  uint64_t prev_end = 0;
  for (size_t s = 0; s < request.runs.size(); ++s) {
    const BatchRequest::Run& run = request.runs[s];
    // A session's runs end on fragment edges or at its version's size, so
    // any other end (past a shrunk store, or an old tail now mid-document
    // after growth) means the session is stale, and it fails closed.
    if (run.end > size ||
        (run.end % layout_.fragment_size != 0 && run.end != size)) {
      return Status::IntegrityError(
          "stale session: batch range beyond the current document version");
    }
    if (run.begin >= run.end || run.begin % layout_.fragment_size != 0 ||
        (run.begin < prev_end && s != 0)) {
      return Status::InvalidArgument("malformed batch run");
    }
    prev_end = run.end;

    BatchResponse::Segment& seg = resp->segments[s];
    seg.begin = run.begin;
    seg.ciphertext.Assign(ciphertext_.data() + run.begin, run.end - run.begin);

    uint64_t first_chunk = run.begin / layout_.chunk_size;
    uint64_t last_chunk = (run.end - 1) / layout_.chunk_size;
    for (uint64_t c = first_chunk; c <= last_chunk; ++c) {
      if (is_bare(c)) continue;
      uint64_t chunk_begin = c * layout_.chunk_size;
      uint64_t chunk_end = std::min(chunk_begin + layout_.chunk_size, size);
      uint64_t cover_begin = std::max(chunk_begin, run.begin);
      uint64_t cover_end = std::min(chunk_end, run.end);

      if (chunks == resp->chunks.size()) resp->chunks.emplace_back();
      BatchResponse::ChunkMaterial& mat = resp->chunks[chunks++];
      mat.chunk_index = c;
      mat.first_fragment = static_cast<uint32_t>(
          (cover_begin - chunk_begin) / layout_.fragment_size);
      mat.last_fragment = static_cast<uint32_t>(
          (cover_end - 1 - chunk_begin) / layout_.fragment_size);
      MerkleTree tree = BuildChunkTree(ciphertext_, chunk_begin, chunk_end,
                                       frags, layout_.fragment_size);
      mat.proof = tree.ProofForRange(mat.first_fragment, mat.last_fragment);
      mat.encrypted_digest = digests_[c];
      // Proof trimming: drop every hash the SOE declared it holds, and
      // the digest once its root is authenticated — re-reads of a hot
      // chunk ship each tree node at most once per serve.
      for (const BatchRequest::ChunkHint& hint : request.hints) {
        if (hint.chunk != c) continue;
        if (hint.known_nodes != 0) {
          std::erase_if(mat.proof, [&](const ProofNode& node) {
            uint64_t flat = VerifiedDigestCache::FlatIndex(
                frags, node.level, node.index);
            return flat < 64 && (hint.known_nodes >> flat) & 1;
          });
        }
        if (hint.root_known) mat.encrypted_digest.clear();
        break;
      }
    }
  }
  resp->chunks.resize(chunks);
  return Status::OK();
}

void SecureDocumentStore::TamperByte(uint64_t pos, uint8_t xor_mask) {
  if (pos < ciphertext_.size()) ciphertext_[pos] ^= xor_mask;
}

void SecureDocumentStore::SwapBlocks(uint64_t block_a, uint64_t block_b) {
  const uint64_t bs = block_size_;
  if ((block_a + 1) * bs > ciphertext_.size() ||
      (block_b + 1) * bs > ciphertext_.size()) {
    return;
  }
  for (uint64_t i = 0; i < bs; ++i) {
    std::swap(ciphertext_[block_a * bs + i], ciphertext_[block_b * bs + i]);
  }
}

void SecureDocumentStore::SwapChunkDigests(uint64_t chunk_a, uint64_t chunk_b) {
  if (chunk_a < digests_.size() && chunk_b < digests_.size()) {
    std::swap(digests_[chunk_a], digests_[chunk_b]);
  }
}

void SecureDocumentStore::ReplayChunkFrom(const SecureDocumentStore& old,
                                          uint64_t chunk) {
  if (chunk >= digests_.size() || chunk >= old.digests_.size()) return;
  uint64_t begin = chunk * layout_.chunk_size;
  uint64_t end = std::min<uint64_t>(begin + layout_.chunk_size,
                                    ciphertext_.size());
  uint64_t old_end = std::min<uint64_t>(begin + layout_.chunk_size,
                                        old.ciphertext_.size());
  if (old_end < end) return;
  std::copy(old.ciphertext_.begin() + begin, old.ciphertext_.begin() + end,
            ciphertext_.begin() + begin);
  digests_[chunk] = old.digests_[chunk];
}

SoeDecryptor::SoeDecryptor(const TripleDes::Key& key, ChunkLayout layout,
                           uint64_t plaintext_size, uint64_t chunk_count,
                           uint32_t expected_version,
                           size_t digest_cache_capacity,
                           std::shared_ptr<VerifiedDigestCache> shared_cache,
                           CipherBackendKind backend)
    : backend_(MakeCipherBackend(backend, key)),
      layout_(layout),
      plaintext_size_(plaintext_size),
      chunk_count_(chunk_count),
      expected_version_(expected_version) {
  // A shared cache vouching for a different document version must never be
  // consulted: its hashes authenticate that version's ciphertext, and
  // accepting them here would undo the replay protection the version check
  // provides. A service serve passes its version snapshot's own cache, so
  // a mismatched handle is a wiring bug upstream — poison the
  // decryptor instead of silently downgrading to a private cache, which
  // hid exactly this class of bug behind a cold-serve wire bill.
  if (shared_cache != nullptr) {
    if (shared_cache->version() == expected_version) {
      cache_ = std::move(shared_cache);
    } else {
      config_error_ = Status::IntegrityError(
          "shared digest cache is stamped for another document version; "
          "refusing to let one version's hashes vouch for another's bytes");
      cache_ = std::make_shared<VerifiedDigestCache>(
          layout.fragments_per_chunk(), /*capacity=*/0, expected_version);
    }
  } else {
    cache_ = std::make_shared<VerifiedDigestCache>(
        layout.fragments_per_chunk(), digest_cache_capacity,
        expected_version);
  }
}

Status SoeDecryptor::VerifyChunkAgainstMaterial(
    const BatchResponse::ChunkMaterial& mat, uint64_t chunk,
    const std::vector<Sha1Digest>& leaves,
    std::vector<std::pair<uint64_t, Sha1Digest>>* digest_memo) {
  const uint32_t bs = backend_->block_size();
  const uint64_t padded_size = (plaintext_size_ + bs - 1) / bs * bs;
  const uint64_t total_blocks = padded_size / bs;
  // Reconstitute a trimmed proof: every sibling the range needs that the
  // terminal did not ship must already sit, authenticated, in the cache.
  // (Shipped hashes are vouched for by the root comparison below; cached
  // ones were vouched for when they were recorded.)
  //
  // The shipped proof is also held to exactly the sibling positions this
  // range can consume. A node at any other position would never enter the
  // root recomputation, so the digest could not vouch for it — yet
  // Record() below remembers the shipped proof for bare re-reads. Without
  // this check a terminal could ride a forged hash (or a duplicate of a
  // real position) into the cache alongside an honest response and have a
  // later proof-trimmed serve trust it: cache poisoning.
  std::vector<ProofNode> proof = mat.proof;
  std::vector<ProofNode> needed;
  {
    const uint32_t frags = layout_.fragments_per_chunk();
    uint64_t lo = mat.first_fragment, hi = mat.last_fragment;
    for (int level = 0; (frags >> level) > 1; ++level, lo /= 2, hi /= 2) {
      const uint64_t width = frags >> level;
      auto supply = [&](uint64_t idx) {
        needed.push_back({level, idx, Sha1Digest{}});
        for (const ProofNode& node : proof) {
          if (node.level == level && node.index == idx) return;
        }
        Sha1Digest cached;
        if (cache_->Node(chunk, level, idx, &cached)) {
          proof.push_back({level, idx, cached});
        }
      };
      if (lo % 2 == 1) supply(lo - 1);
      if (hi % 2 == 0 && hi + 1 < width) supply(hi + 1);
    }
  }
  for (size_t i = 0; i < mat.proof.size(); ++i) {
    const ProofNode& node = mat.proof[i];
    bool consumed = false;
    for (const ProofNode& want : needed) {
      if (want.level == node.level && want.index == node.index) {
        consumed = true;
        break;
      }
    }
    for (size_t j = 0; consumed && j < i; ++j) {
      if (mat.proof[j].level == node.level &&
          mat.proof[j].index == node.index) {
        consumed = false;  // Duplicate position: only the first is used.
      }
    }
    if (!consumed) {
      return Status::IntegrityError(
          "merkle proof carries a node the range does not need");
    }
  }
  Result<Sha1Digest> root = MerkleTree::RootFromRange(
      layout_.fragments_per_chunk(), mat.first_fragment, mat.last_fragment,
      leaves, proof);
  if (!root.ok()) {
    return Status::IntegrityError("merkle proof invalid: " +
                                  root.status().message());
  }
  // A converged recombination folds leaves plus siblings into one root:
  // one interior hash per node consumed, less the root itself.
  counters_.hash_combines += leaves.size() + proof.size() - 1;
  if (mat.encrypted_digest.empty()) {
    // Digest waived (root_known hint): the recomputed root must match the
    // root authenticated earlier, or the terminal tampered with the bytes.
    Sha1Digest cached_root;
    if (!cache_->Root(chunk, &cached_root) || cached_root != root.value()) {
      return Status::IntegrityError(
          "waived chunk digest does not match cached root (tampered data?)");
    }
    cache_->Record(common::VerifyPass{}, chunk, root.value(),
                   mat.first_fragment, leaves, proof);
    return Status::OK();
  }
  if (mat.encrypted_digest.size() != DigestCipherBytes(bs)) {
    return Status::IntegrityError("chunk digest has wrong size");
  }
  // The recomputed root needs authenticating exactly once per chunk per
  // batch: against the cache (already authenticated under this version),
  // against the batch memo, or — first touch — by decrypting the shipped
  // ChunkDigest and checking the bound index and version.
  Sha1Digest known_root;
  bool root_known = cache_->Root(chunk, &known_root);
  if (!root_known) {
    cache_->RecordMiss();
    for (const auto& [memo_chunk, memo_root] : *digest_memo) {
      if (memo_chunk == chunk) {
        known_root = memo_root;
        root_known = true;
        break;
      }
    }
  }
  if (root_known) {
    if (known_root != root.value()) {
      return Status::IntegrityError(
          "recomputed chunk root does not match authenticated root "
          "(tampered data?)");
    }
  } else {
    // Decrypt the shipped digest (rather than comparing ciphertexts) so a
    // version mismatch — a replayed stale chunk whose hash checks out
    // against its own stale digest — is distinguishable from tampering.
    const uint64_t t0 = NowNs();
    std::vector<uint8_t> digest_plain = mat.encrypted_digest;
    backend_->DecryptSegment(digest_plain.data(), digest_plain.size(),
                             total_blocks + chunk * DigestBlocks(bs));
    counters_.decrypt_ns += NowNs() - t0;
    counters_.digest_bytes_decrypted += digest_plain.size();
    uint32_t digest_version = 0;
    for (int i = 0; i < 4; ++i) {
      digest_version = (digest_version << 8) | digest_plain[20 + i];
    }
    Sha1Digest bound = BindChunkIndex(chunk, root.value());
    if (!std::equal(bound.begin(), bound.end(), digest_plain.begin())) {
      return Status::IntegrityError(
          "chunk digest does not bind this chunk's content (tampered data?)");
    }
    if (digest_version != expected_version_) {
      return Status::IntegrityError(
          "stale chunk digest: version " + std::to_string(digest_version) +
          ", expected " + std::to_string(expected_version_) +
          " (replayed document state?)");
    }
    digest_memo->emplace_back(chunk, root.value());
  }
  // Everything that entered the (successful) root recomputation is now as
  // authentic as the digest: remember it for bare re-reads.
  cache_->Record(common::VerifyPass{}, chunk, root.value(),
                 mat.first_fragment, leaves, mat.proof);
  return Status::OK();
}

Status SoeDecryptor::DecryptVerifiedBatch(
    const BatchRequest& request, const BatchResponse& response, uint8_t* out,
    size_t out_size, const VerifiedDigestCache::PinScope* held) {
  CSXA_RETURN_NOT_OK(config_error_);
  const uint32_t bs = backend_->block_size();
  const uint64_t padded_size = (plaintext_size_ + bs - 1) / bs * bs;
  if (out_size < plaintext_size_) {
    // csxa-lint: allow(error-taxonomy) output sizing is SOE caller misuse, not attacker input
    return Status::InvalidArgument("output buffer smaller than document");
  }
  if (response.segments.size() != request.runs.size()) {
    return Status::IntegrityError("batch response run count mismatch");
  }
  auto is_bare = [&request](uint64_t c) {
    return std::find(request.bare_chunks.begin(), request.bare_chunks.end(),
                     c) != request.bare_chunks.end();
  };
  // Pin every chunk this batch's waivers and trimming hints rely on:
  // mid-batch Record() calls for other chunks must not evict the cached
  // material the request was built against (an honest response would
  // otherwise fail verification under a small cache). The fetcher's
  // batch guard already pins them; anything it does not cover is pinned
  // here.
  bool covered = held != nullptr;
  for (uint64_t c : request.bare_chunks) {
    covered = covered && held->Covers(cache_.get(), c);
  }
  for (const BatchRequest::ChunkHint& hint : request.hints) {
    covered = covered && held->Covers(cache_.get(), hint.chunk);
  }
  VerifiedDigestCache::PinScope pin;
  if (!covered) {
    std::vector<uint64_t> claimed = request.bare_chunks;
    for (const BatchRequest::ChunkHint& hint : request.hints) {
      claimed.push_back(hint.chunk);
    }
    pin = VerifiedDigestCache::PinScope(cache_.get(), std::move(claimed));
  }

  // Phase 1 — verify every segment's chunks before releasing any byte.
  std::vector<std::pair<uint64_t, Sha1Digest>> digest_memo;
  size_t mat_index = 0;
  for (size_t s = 0; s < response.segments.size(); ++s) {
    const BatchResponse::Segment& seg = response.segments[s];
    const BatchRequest::Run& run = request.runs[s];
    if (seg.begin != run.begin ||
        seg.begin + seg.ciphertext.size() != run.end ||
        run.end > padded_size || run.begin >= run.end ||
        run.begin % layout_.fragment_size != 0 ||
        (run.end % layout_.fragment_size != 0 && run.end != padded_size)) {
      return Status::IntegrityError("batch segment does not match request");
    }
    const uint8_t* seg_ct = seg.ciphertext.VerifyData(common::VerifyPass{});
    const uint64_t seg_end = run.end;
    uint64_t first_chunk = run.begin / layout_.chunk_size;
    uint64_t last_chunk = (seg_end - 1) / layout_.chunk_size;
    for (uint64_t c = first_chunk; c <= last_chunk; ++c) {
      if (c >= chunk_count_) {
        return Status::IntegrityError(
            "chunk index out of bounds in batch response");
      }
      uint64_t chunk_begin = c * layout_.chunk_size;
      uint64_t chunk_end = std::min(chunk_begin + layout_.chunk_size,
                                    padded_size);
      uint64_t cover_begin = std::max(chunk_begin, run.begin);
      uint64_t cover_end = std::min(chunk_end, seg_end);
      const uint32_t first = static_cast<uint32_t>(
          (cover_begin - chunk_begin) / layout_.fragment_size);
      const uint32_t last = static_cast<uint32_t>(
          (cover_end - 1 - chunk_begin) / layout_.fragment_size);

      // Leaf hashes of the shipped fragments: fragment alignment means
      // every hash starts fresh at a fragment boundary — no intermediate
      // states cross the wire in the batched protocol.
      std::vector<Sha1Digest>& leaves = leaves_;
      leaves.clear();
      const uint64_t h0 = NowNs();
      for (uint32_t f = first; f <= last; ++f) {
        uint64_t fb = chunk_begin + uint64_t{f} * layout_.fragment_size;
        uint64_t fe =
            std::min<uint64_t>(fb + layout_.fragment_size, chunk_end);
        leaves.push_back(Sha1::Hash(seg_ct + (fb - run.begin), fe - fb));
        counters_.bytes_hashed += fe - fb;
      }
      counters_.hash_ns += NowNs() - h0;

      if (is_bare(c)) {
        // Cache-hit path: no material crossed the wire. When every shipped
        // fragment's leaf is cached, equal leaves are the whole proof: a
        // cached leaf was authenticated against the root before it was
        // written, so recombining would only re-derive that root.
        if (cache_->MatchLeaves(c, first, leaves)) continue;
        // Otherwise recombine the fresh leaves with the cached
        // (authenticated) sibling hashes and compare against the cached
        // root — a tampered re-read diverges right here.
        Sha1Digest known_root;
        if (!cache_->Root(c, &known_root)) {
          return Status::IntegrityError(
              "bare chunk not present in digest cache");
        }
        std::vector<ProofNode> proof = cache_->ProofFor(c, first, last);
        Result<Sha1Digest> root = MerkleTree::RootFromRange(
            layout_.fragments_per_chunk(), first, last, leaves, proof);
        if (!root.ok() || root.value() != known_root) {
          return Status::IntegrityError(
              "re-read failed verification against cached digest "
              "(tampered data?)");
        }
        counters_.hash_combines += leaves.size() + proof.size() - 1;
        cache_->RecordBareHit();
        cache_->Record(common::VerifyPass{}, c, known_root, first, leaves,
                       proof);
      } else {
        if (mat_index >= response.chunks.size()) {
          return Status::IntegrityError(
              "missing integrity material for chunk in batch response");
        }
        const BatchResponse::ChunkMaterial& mat = response.chunks[mat_index];
        ++mat_index;
        if (mat.chunk_index != c || mat.first_fragment != first ||
            mat.last_fragment != last ||
            mat.last_fragment >= layout_.fragments_per_chunk()) {
          // The hashed fragments must cover exactly the transferred bytes
          // of this chunk: anything narrower would have bytes decrypted
          // unverified, anything else is a misaligned proof.
          return Status::IntegrityError(
              "integrity material does not cover the transferred range of "
              "the batch segment");
        }
        CSXA_RETURN_NOT_OK(
            VerifyChunkAgainstMaterial(mat, c, leaves, &digest_memo));
      }
    }
  }
  if (mat_index != response.chunks.size()) {
    return Status::IntegrityError("unexpected extra integrity material");
  }

  // Phase 2 — hand each verified segment to the backend as one contiguous
  // block run. Runs are fragment-aligned (hence block-aligned) on both
  // ends, so whole blocks that land inside the document buffer decrypt in
  // place there; only a partial tail block (document end, zero padding
  // beyond plaintext_size_) detours through a scratch block.
  const uint64_t d0 = NowNs();
  for (const BatchResponse::Segment& seg : response.segments) {
    const uint64_t seg_end = seg.begin + seg.ciphertext.size();
    const uint64_t copy_end = std::min<uint64_t>(seg_end, plaintext_size_);
    if (copy_end <= seg.begin) continue;
    const uint8_t* seg_ct = seg.ciphertext.VerifyData(common::VerifyPass{});
    const uint64_t whole = (copy_end - seg.begin) / bs * bs;
    if (whole > 0) {
      std::memcpy(out + seg.begin, seg_ct, whole);
      backend_->DecryptSegment(out + seg.begin, whole, seg.begin / bs);
      counters_.bytes_decrypted += whole;
    }
    if (seg.begin + whole < copy_end) {
      uint8_t scratch[kMaxCipherBlockSize];
      std::memcpy(scratch, seg_ct + whole, bs);
      backend_->DecryptSegment(scratch, bs, seg.begin / bs + whole / bs);
      std::memcpy(out + seg.begin + whole, scratch,
                  copy_end - (seg.begin + whole));
      counters_.bytes_decrypted += bs;
    }
  }
  counters_.decrypt_ns += NowNs() - d0;
  return Status::OK();
}

}  // namespace csxa::crypto

#include "index/secure_fetcher.h"

#include <algorithm>


namespace csxa::index {

SecureFetcher::SecureFetcher(const crypto::BatchSource* source,
                             const crypto::ChunkLayout& layout,
                             uint64_t plaintext_size, uint64_t ciphertext_size,
                             crypto::SoeDecryptor* soe,
                             const PlannerOptions& planner_options)
    : source_(source),
      soe_(soe),
      fragment_size_(layout.fragment_size),
      chunk_size_(layout.chunk_size),
      planner_(ciphertext_size, layout.fragment_size, layout.chunk_size,
               planner_options),
      proof_probe_([this](uint64_t chunk, uint32_t first, uint32_t last) {
        return soe_->MissingProofNodes(chunk, first, last);
      }),
      buffer_(plaintext_size, 0),
      view_(soe->VerifiedViewOf(buffer_.data(), buffer_.size())),
      padded_size_(ciphertext_size),
      fragment_valid_(planner_.fragment_count(), false),
      transport_base_(source->transport_stats()) {}

uint64_t SecureFetcher::HeldEnd(uint64_t begin) const {
  // Bounded by one batch horizon so a miss stays O(1): past the cap the
  // navigator just asks again, and that Ensure() finds its bytes held.
  const uint64_t horizon =
      std::max<uint64_t>(1, planner_.max_batch_bytes() / fragment_size_);
  uint64_t f = begin / fragment_size_;
  const uint64_t stop =
      std::min<uint64_t>(fragment_valid_.size(), f + horizon);
  while (f < stop && fragment_valid_[f]) ++f;
  return std::max(begin,
                  std::min<uint64_t>(f * fragment_size_, buffer_.size()));
}

Status SecureFetcher::Ensure(uint64_t begin, uint64_t end) {
  end = std::min<uint64_t>(end, buffer_.size());
  if (begin >= end) return Status::OK();

  // One planner batch per terminal round trip; a demand wider than the
  // batch horizon completes over successive iterations (each is
  // guaranteed to validate at least the first missing demand fragment).
  // After a batch the demand's fragments are checked here: a planner
  // call only to learn that they are held would change nothing.
  uint64_t first_missing = begin / fragment_size_;
  const uint64_t last = (end - 1) / fragment_size_;
  while (true) {
    const std::vector<FragmentRun>& runs =
        planner_.Plan(begin, end, fragment_valid_, proof_probe_);
    if (runs.empty()) return Status::OK();  // Demand fully held.

    // One pass over the runs derives both the request ranges and every
    // (chunk, covered fragment interval) pair the batch touches. Runs are
    // sorted and disjoint, so covers of one chunk are adjacent. All of it
    // goes into storage reused from the previous round trip.
    crypto::BatchRequest& req = req_;
    req.runs.clear();
    req.bare_chunks.clear();
    req.hints.clear();
    covers_.clear();
    touched_.clear();
    for (const FragmentRun& run : runs) {
      crypto::BatchRequest::Run r;
      r.begin = run.begin_frag * fragment_size_;
      r.end = std::min<uint64_t>(run.end_frag * fragment_size_, padded_size_);
      req.runs.push_back(r);
      for (uint64_t c = r.begin / chunk_size_; c <= (r.end - 1) / chunk_size_;
           ++c) {
        uint64_t chunk_begin = c * chunk_size_;
        uint64_t cover_begin = std::max<uint64_t>(chunk_begin, r.begin);
        uint64_t cover_end =
            std::min<uint64_t>(chunk_begin + chunk_size_, r.end);
        covers_.push_back(
            {c,
             static_cast<uint32_t>((cover_begin - chunk_begin) /
                                   fragment_size_),
             static_cast<uint32_t>((cover_end - 1 - chunk_begin) /
                                   fragment_size_)});
        if (touched_.empty() || touched_.back() != c) touched_.push_back(c);
      }
    }
    // Pin the batch's chunks *before* probing the cache, in the same
    // critical section as the probes: with the cache shared across
    // serves, a concurrent session's insertions could evict an entry
    // between the waiver probe and the verification that relies on it —
    // failing an honest response. Pinned entries cannot be displaced
    // until the guard is released (after DecryptVerifiedBatch).
    //
    // Waive integrity material for every chunk whose covered fragment
    // ranges the SOE can already verify from its digest cache. For the
    // rest, trim the proof instead — declare every tree node the SOE
    // already holds so the terminal ships only the genuinely new hashes
    // (and no digest once the root is authenticated).
    crypto::VerifiedDigestCache::PinScope pin =
        soe_->ClaimBatch(std::move(touched_), covers_, &claims_);
    for (const crypto::VerifiedDigestCache::Claim& claim : claims_) {
      if (claim.bare) {
        req.bare_chunks.push_back(claim.chunk);
      } else if (claim.known_nodes != 0 || claim.root_known) {
        req.hints.push_back({claim.chunk, claim.known_nodes, claim.root_known});
      }
    }

    auto resp = source_->ReadBatch(req);
    CSXA_RETURN_NOT_OK(resp.status());
    wire_bytes_ += resp.value().WireBytes();
    ++requests_;
    segments_ += req.runs.size();
    bare_chunk_reads_ += req.bare_chunks.size();
    uint64_t batch_proof_bytes = 0;
    for (const crypto::BatchResponse::ChunkMaterial& mat :
         resp.value().chunks) {
      proof_hashes_shipped_ += mat.proof.size();
      digest_bytes_shipped_ += mat.encrypted_digest.size();
      batch_proof_bytes += mat.proof.size() * sizeof(crypto::Sha1Digest);
    }
    // Feed the realized proof overhead back: the planner's stream-all
    // fallback weighs it against the ciphertext skipping actually avoided.
    // The link's current round-trip price caps readahead across skips.
    planner_.ReportProofBytes(batch_proof_bytes);
    planner_.SetRoundTripPrice(
        source_->transport_stats().round_trip_price_bytes);
    CSXA_RETURN_NOT_OK(soe_->DecryptVerifiedBatch(
        req, resp.value(), buffer_.data(), buffer_.size(), &pin));
    touched_ = pin.Release();
    for (const FragmentRun& run : runs) {
      for (uint64_t f = run.begin_frag; f < run.end_frag; ++f) {
        fragment_valid_[f] = true;
      }
      uint64_t b = run.begin_frag * fragment_size_;
      uint64_t e = std::min<uint64_t>(run.end_frag * fragment_size_,
                                      buffer_.size());
      if (e > b) bytes_fetched_ += e - b;
    }
    while (first_missing <= last && fragment_valid_[first_missing]) {
      ++first_missing;
    }
    if (first_missing > last) return Status::OK();
  }
}

}  // namespace csxa::index

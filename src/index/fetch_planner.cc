#include "index/fetch_planner.h"

#include <algorithm>
#include <array>
#include <bit>

namespace csxa::index {

namespace {

/// Fragment bitmaps: bit f of word f / 64.
std::vector<uint64_t> Bitmap(uint64_t bits) {
  return std::vector<uint64_t>((bits + 63) / 64, 0);
}
bool Test(const std::vector<uint64_t>& map, uint64_t f) {
  return (map[f / 64] >> (f % 64)) & 1;
}
void Set(std::vector<uint64_t>* map, uint64_t f) {
  (*map)[f / 64] |= uint64_t{1} << (f % 64);
}
void Clear(std::vector<uint64_t>* map, uint64_t f) {
  (*map)[f / 64] &= ~(uint64_t{1} << (f % 64));
}

}  // namespace

FetchPlanner::FetchPlanner(uint64_t document_bytes, uint32_t fragment_size,
                           uint32_t chunk_size, const PlannerOptions& options)
    : document_bytes_(document_bytes),
      fragment_size_(fragment_size),
      chunk_size_(chunk_size),
      fragment_count_((document_bytes + fragment_size - 1) / fragment_size),
      gap_threshold_(options.gap_threshold_bytes == UINT64_MAX
                         ? fragment_size
                         : options.gap_threshold_bytes),
      max_batch_(options.max_batch_bytes == 0 ? uint64_t{4} * chunk_size
                                              : options.max_batch_bytes),
      wanted_(Bitmap(fragment_count_)),
      excluded_(Bitmap(fragment_count_)),
      planned_(fragment_count_, 0) {}

uint64_t FetchPlanner::FragmentBytes(uint64_t f) const {
  return std::min<uint64_t>(fragment_size_,
                            document_bytes_ - f * fragment_size_);
}

void FetchPlanner::HintWanted(uint64_t begin, uint64_t end) {
  end = std::min(end, document_bytes_);
  if (begin >= end) return;
  ++stats_.hints_wanted;
  // Outward rounding: a partially wanted fragment is fetched whole anyway.
  uint64_t first = begin / fragment_size_;
  uint64_t last = (end - 1) / fragment_size_;
  for (uint64_t f = first; f <= last; ++f) {
    // Re-promising a cancelled range (a granted deferral) takes its bytes
    // back out of the fallback's avoidance ledger.
    if (Test(excluded_, f) && !planned_[f]) {
      avoided_bytes_ -= FragmentBytes(f);
    }
    Set(&wanted_, f);
    Clear(&excluded_, f);
  }
}

void FetchPlanner::HintExcluded(uint64_t begin, uint64_t end) {
  end = std::min(end, document_bytes_);
  if (begin >= end) return;
  // Once the fallback proved skipping a net loss, exclusions are ignored:
  // the navigator still jumps the subtrees, but the wire streams whole
  // chunks with empty proofs — cancelling ranges again would only re-open
  // the hole-vs-proof bleed the fallback just stopped.
  if (stream_all_fallback_) return;
  ++stats_.hints_excluded;
  // Inward rounding: boundary fragments carry live neighbouring bytes
  // (the element's own header before the subtree, its close marker after).
  uint64_t first = (begin + fragment_size_ - 1) / fragment_size_;
  uint64_t last_end = end / fragment_size_;  // exclusive
  // Skip evidence: speculate no further than one round trip is worth — a
  // skip-dense region must page conservatively or the readahead
  // re-fetches what skipping just saved, unless the round trip a page
  // costs is dearer than those bytes. A skip inside one fragment is no
  // such evidence: the fragment crosses the wire whole anyway, so it
  // cancels no transfer. Only once some skip has saved a whole fragment
  // does every later one cap the window.
  if (first < last_end) skips_save_fragments_ = true;
  if (skips_save_fragments_) {
    readahead_bytes_ = std::min(readahead_bytes_, round_trip_price_bytes_);
  }
  uint64_t wasted_frags = 0;
  for (uint64_t f = first; f < last_end; ++f) {
    if (Test(excluded_, f)) continue;
    // An exclusion over a fragment some batch actually emitted cancels
    // bytes speculation already paid for: that part of the skip saved
    // nothing. (Holes below the frontier were never fetched — not waste;
    // they enter the fallback's avoidance ledger instead.)
    if (planned_[f]) {
      ++wasted_frags;
    } else {
      avoided_bytes_ += FragmentBytes(f);
    }
    Set(&excluded_, f);
    Clear(&wanted_, f);
  }
  stats_.speculation_waste_bytes += wasted_frags * fragment_size_;
}

void FetchPlanner::HintStreamAll() {
  ++stats_.hints_wanted;
  MarkAllWanted();
}

void FetchPlanner::MarkAllWanted() {
  std::fill(wanted_.begin(), wanted_.end(), ~uint64_t{0});
  std::fill(excluded_.begin(), excluded_.end(), 0);
  avoided_bytes_ = 0;
}

namespace {

/// Exact sibling-hash count of a contiguous-range Merkle proof (mirrors
/// MerkleTree::ProofForRange).
uint64_t ProofNodeCount(uint64_t leaf_count, uint64_t first, uint64_t last) {
  uint64_t n = 0, lo = first, hi = last;
  for (uint64_t width = leaf_count; width > 1; width /= 2, lo /= 2, hi /= 2) {
    if (lo % 2 == 1) ++n;
    if (hi % 2 == 0 && hi + 1 < width) ++n;
  }
  return n;
}

constexpr uint64_t kHashBytes = 20;  // SHA-1 proof node on the wire.

}  // namespace

const std::vector<FragmentRun>& FetchPlanner::Plan(
    uint64_t begin, uint64_t end, const std::vector<bool>& valid,
    const ProofCostProbe& proof_cost) {
  std::vector<FragmentRun>& runs = runs_;
  runs.clear();
  end = std::min(end, document_bytes_);
  if (begin >= end) return runs;
  const uint64_t d0 = begin / fragment_size_;
  const uint64_t d1 = (end - 1) / fragment_size_;  // inclusive

  uint64_t first_missing = d0;
  while (first_missing <= d1 && valid[first_missing]) ++first_missing;
  if (first_missing > d1) return runs;  // Demand already held.

  // Stream-all fallback: skipping has to *pay for itself*. Every hole a
  // skip leaves in a chunk's coverage forces sibling hashes onto the wire
  // that whole-chunk streaming would never ship; when the hashes paid so
  // far outweigh the ciphertext actually avoided (exclusions usually
  // arrive after readahead already fetched part of the subtree), the serve
  // is strictly worse off than full streaming — flip to stream-all for
  // the rest. Checked against *realized* numbers, not projections, so
  // workloads whose prunes span chunks (where skipping wins big) never
  // come close to flipping. The minimum-exclusions threshold keeps the
  // verdict out of transient windows: right after a granted deferral is
  // re-promised, "avoided" legitimately dips to near zero although the
  // deferral strategy's savings (the *denied* subtrees) are still ahead.
  constexpr uint64_t kMinExclusionsForFallback = 6;
  if (!stream_all_fallback_ &&
      stats_.hints_excluded >= kMinExclusionsForFallback &&
      proof_overhead_bytes_ > avoided_bytes_) {
    stream_all_fallback_ = true;
    ++stats_.stream_all_fallbacks;
    MarkAllWanted();
  }

  // Adaptive window: a demand that continues exactly where the last batch
  // ended is sequential streaming — speculate twice as far as last time
  // (seeded by the demand's own span, so wide demands jump straight to
  // wide batches). A demand landing anywhere else just skipped or seeked:
  // restart cautious.
  if (first_missing == frontier_) {
    const uint64_t demand_bytes = (d1 - d0 + 1) * fragment_size_;
    readahead_bytes_ = std::min<uint64_t>(
        max_batch_,
        std::max<uint64_t>(std::max<uint64_t>(readahead_bytes_ * 2,
                                              demand_bytes),
                           fragment_size_));
  } else {
    readahead_bytes_ = 0;
  }
  const uint64_t readahead_frags = readahead_bytes_ / fragment_size_;

  // Hard horizon, anchored at the first fragment this batch must carry;
  // never empty, so oversized demands still make progress.
  const uint64_t horizon_frags =
      std::max<uint64_t>(1, max_batch_ / fragment_size_);
  const uint64_t window_end =
      std::min(fragment_count_, first_missing + horizon_frags);
  const uint64_t spec_end =
      std::min(window_end, first_missing + readahead_frags);

  // The working set spans whole chunks around the window so that chunk
  // completion can round outward in both directions.
  const uint64_t frags_per_chunk = chunk_size_ / fragment_size_;
  const uint64_t base = first_missing / frags_per_chunk * frags_per_chunk;
  const uint64_t extent =
      std::min(fragment_count_,
               (window_end + frags_per_chunk - 1) / frags_per_chunk *
                   frags_per_chunk);
  std::vector<uint8_t>& include = include_;
  include.assign(extent - base, 0);
  auto inc = [&](uint64_t f) { return include[f - base] != 0; };

  // Pass 1 — mark what the batch needs: the demand, hinted-wanted
  // fragments, and the speculative window (which never crosses an
  // exclusion). Past the demand and the window only wanted fragments
  // count, so that stretch is walked through the wanted bitmap's set
  // bits. The first missing demand fragment is always included;
  // `last_inc` bounds the rest, since no later pass includes a fragment
  // outside the chunks pass 1 reached.
  uint64_t last_inc = first_missing;
  const uint64_t dense_end =
      std::min(window_end, std::max(d1 + 1, spec_end));
  for (uint64_t f = first_missing; f < dense_end; ++f) {
    if (valid[f]) continue;  // Never re-fetch held fragments.
    if (f <= d1 || Test(wanted_, f) ||
        (f < spec_end && !Test(excluded_, f))) {
      include[f - base] = 1;
      last_inc = f;
    }
  }
  for (uint64_t f = dense_end; f < window_end;) {
    const uint64_t word = wanted_[f / 64] >> (f % 64);
    if (word == 0) {
      f = (f / 64 + 1) * 64;
      continue;
    }
    f += static_cast<uint64_t>(std::countr_zero(word));
    if (f >= window_end) break;
    if (!valid[f]) {
      include[f - base] = 1;
      last_inc = f;
    }
    ++f;
  }
  const uint64_t shaped_end =
      std::min(extent, (last_inc / frags_per_chunk + 1) * frags_per_chunk);

  // Pass 2 — bridge sub-threshold gaps between included runs (no valid
  // fragment may be re-fetched, so any held fragment splits).
  if (gap_threshold_ > 0) {
    uint64_t prev_inc = UINT64_MAX;
    for (uint64_t f = first_missing; f <= last_inc; ++f) {
      if (!inc(f)) continue;
      if (prev_inc != UINT64_MAX && f > prev_inc + 1) {
        const uint64_t gap = f - prev_inc - 1;
        bool gap_fetchable = gap * fragment_size_ <= gap_threshold_;
        for (uint64_t g = prev_inc + 1; gap_fetchable && g < f; ++g) {
          if (valid[g]) gap_fetchable = false;
        }
        if (gap_fetchable) {
          for (uint64_t g = prev_inc + 1; g < f; ++g) include[g - base] = 1;
          stats_.gap_fragments_bridged += gap;
        }
      }
      prev_inc = f;
    }
  }

  // Pass 3 — proof-aware coverage shaping, per chunk. Every hole in a
  // chunk's planned coverage costs sibling hashes on the wire; every fill
  // costs the hole's ciphertext. Price both with the digest-cache probe
  // (post-trimming: already-cached hashes ship regardless of shape — for
  // free) and keep the cheaper coverage. Greedy hole-by-hole first, then
  // whole-chunk completion (which also captures edge extension and
  // multi-hole combinations the greedy step prices individually). Only
  // chunks up to the last included fragment can hold one.
  for (uint64_t cf = base; cf < shaped_end; cf += frags_per_chunk) {
    const uint64_t ce = std::min(extent, cf + frags_per_chunk);
    const uint64_t chunk = cf / frags_per_chunk;

    // Wire bytes of the sibling hashes the chunk's current coverage would
    // ship (only genuinely new hashes when the probe is set). The greedy
    // loop below prices the same ranges repeatedly — memoize per chunk so
    // the (shared, mutex-guarded) cache probe runs once per distinct
    // range instead of once per candidate evaluation. A range beyond the
    // table's capacity is priced afresh each time.
    struct Priced {
      uint64_t first, last, cost;
    };
    std::array<Priced, 64> memo;
    size_t memo_size = 0;
    auto range_cost = [&](uint64_t first, uint64_t last) -> uint64_t {
      for (size_t i = 0; i < memo_size; ++i) {
        if (memo[i].first == first && memo[i].last == last) {
          return memo[i].cost;
        }
      }
      const uint64_t nodes =
          proof_cost != nullptr
              ? proof_cost(chunk, static_cast<uint32_t>(first - cf),
                           static_cast<uint32_t>(last - cf))
              : ProofNodeCount(frags_per_chunk, first - cf, last - cf);
      if (memo_size < memo.size()) {
        memo[memo_size++] = {first, last, nodes * kHashBytes};
      }
      return nodes * kHashBytes;
    };
    auto coverage_cost = [&]() -> uint64_t {
      uint64_t cost = 0, range_start = UINT64_MAX;
      for (uint64_t f = cf; f < ce; ++f) {
        if (inc(f)) {
          if (range_start == UINT64_MAX) range_start = f;
        } else if (range_start != UINT64_MAX) {
          cost += range_cost(range_start, f - 1);
          range_start = UINT64_MAX;
        }
      }
      if (range_start != UINT64_MAX) cost += range_cost(range_start, ce - 1);
      return cost;
    };
    auto actual_bytes = [&](uint64_t first, uint64_t last) -> uint64_t {
      const uint64_t b = first * fragment_size_;
      const uint64_t e = std::min((last + 1) * fragment_size_,
                                  document_bytes_);
      return e > b ? e - b : 0;
    };

    bool any_included = false, any_valid_in_chunk = false;
    uint64_t missing_bytes = 0;
    for (uint64_t f = cf; f < ce; ++f) {
      any_included |= inc(f);
      any_valid_in_chunk |= valid[f];
      if (!inc(f) && !valid[f]) missing_bytes += actual_bytes(f, f);
    }
    if (!any_included || missing_bytes == 0) continue;

    // Greedy: fill any maximal hole (run of unplanned, unheld fragments)
    // whose ciphertext costs no more than the proof hashes it removes.
    // Valid fragments bound holes — they can never be re-fetched. A
    // coverage that ships no hash (a warm chunk) has nothing to save:
    // neither a fill nor completion can pay for its bytes.
    uint64_t cost_before = coverage_cost();
    if (cost_before == 0) continue;
    bool filled = true;
    while (filled && cost_before > 0) {
      filled = false;
      for (uint64_t f = cf; f < ce; ++f) {
        if (inc(f) || valid[f]) continue;
        uint64_t h1 = f;
        while (h1 + 1 < ce && !inc(h1 + 1) && !valid[h1 + 1]) ++h1;
        const uint64_t hole_bytes = actual_bytes(f, h1);
        for (uint64_t g = f; g <= h1; ++g) include[g - base] = 1;
        const uint64_t cost_after = coverage_cost();
        if (cost_before >= cost_after &&
            cost_before - cost_after >= hole_bytes && hole_bytes > 0) {
          cost_before = cost_after;
          stats_.proof_holes_filled += 1;
          filled = true;
        } else {
          for (uint64_t g = f; g <= h1; ++g) include[g - base] = 0;
        }
        f = h1;
      }
    }
    // Whole-chunk completion: combinations of holes (and edge gaps) can
    // be jointly profitable where each alone is not — full coverage
    // collapses the proof to the EmptyLeaf padding of a tail chunk, or to
    // nothing. Only when no held fragment forbids the merge.
    if (!any_valid_in_chunk) {
      uint64_t still_missing = 0;
      for (uint64_t f = cf; f < ce; ++f) {
        if (!inc(f)) still_missing += actual_bytes(f, f);
      }
      if (still_missing > 0) {
        const uint64_t cost_full = range_cost(cf, ce - 1);
        if (cost_before >= cost_full &&
            cost_before - cost_full >= still_missing) {
          for (uint64_t f = cf; f < ce; ++f) include[f - base] = 1;
          stats_.chunks_completed += 1;
        }
      }
    }
  }

  // Emit maximal included runs.
  for (uint64_t f = base; f < shaped_end; ++f) {
    if (!inc(f)) continue;
    // An excluded fragment the batch fetches anyway (bridged, hole-filled
    // or demanded outright) stops being avoided ciphertext.
    if (Test(excluded_, f) && !planned_[f]) {
      avoided_bytes_ -= FragmentBytes(f);
    }
    planned_[f] = 1;
    if (!runs.empty() && runs.back().end_frag == f) {
      runs.back().end_frag = f + 1;
    } else {
      runs.push_back({f, f + 1});
    }
  }
  if (!runs.empty()) frontier_ = runs.back().end_frag;
  return runs;
}

}  // namespace csxa::index

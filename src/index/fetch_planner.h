#ifndef CSXA_INDEX_FETCH_PLANNER_H_
#define CSXA_INDEX_FETCH_PLANNER_H_

#include <cstdint>
#include <functional>
#include <vector>

namespace csxa::index {

/// Knobs of the range-coalescing fetch planner.
struct PlannerOptions {
  /// Largest run of *unneeded* bytes the planner bridges (fetches anyway)
  /// to keep two nearby needed ranges in one contiguous segment: one
  /// segment means one chunk-proof set instead of two, and no extra round
  /// trip. 0 never bridges. The sentinel UINT64_MAX resolves to one
  /// fragment at construction — sub-fragment holes are free to bridge
  /// (the hashing unit forces whole fragments anyway), anything larger is
  /// skipped content whose transfer the Skip index exists to avoid.
  uint64_t gap_threshold_bytes = UINT64_MAX;

  /// Upper bound on ciphertext bytes per terminal round trip — the SOE's
  /// response buffer. Look-ahead never plans past this horizon; oversized
  /// demands are split into successive batches. The sentinel 0 resolves
  /// to four chunks at construction.
  uint64_t max_batch_bytes = 0;
};

/// One planned fragment run [begin_frag, end_frag), to be fetched as a
/// single contiguous ciphertext segment.
struct FragmentRun {
  uint64_t begin_frag = 0;
  uint64_t end_frag = 0;
};

/// Range-coalescing planner of the batched verified fetch: turns the
/// navigator's byte-at-a-time demands into few, large, chunk-shaped
/// terminal reads.
///
/// The planner keeps one classification per fragment, driven by look-ahead
/// hints from the pipeline's skip oracle:
///
///  - *wanted*  — the oracle proved the bytes will be streamed (a fully
///    authorized subtree, a granted deferral about to be re-read, or the
///    whole document when the stream cannot skip). Wanted fragments are
///    prefetched into the current batch up to the batch horizon.
///  - *excluded* — a skip/defer decision cancelled the range: the bytes
///    will not be needed (or not now). Excluded fragments are never
///    planned ahead; they are fetched only if demanded outright (a defer
///    later re-hinted as wanted) or bridged as a sub-threshold gap.
///  - *unknown* — no evidence either way. Prefetched only by the adaptive
///    sequential window below: blind speculation past the decode frontier
///    would transfer bytes the very next skip decision prunes, which is
///    the cost model this system exists to minimize.
///
/// Unknown fragments are covered by *adaptive readahead*: while demands
/// arrive exactly at the previous batch's frontier (sequential streaming),
/// the readahead window doubles — so a run that never skips converges to
/// maximal chunk-aligned batches, indistinguishable from a planned
/// stream-all read, with empty Merkle proofs (full-chunk coverage needs no
/// siblings). Once the window spans at least a chunk, batch ends snap
/// outward to chunk boundaries so whole-chunk coverage (and the empty
/// proof that comes with it) is the common case.
///
/// Once the skip oracle has cancelled a range that spans at least one
/// whole fragment, every cancellation caps the window at the link's
/// round-trip price (SetRoundTripPrice): the bytes one round trip is
/// worth on the link, its bandwidth-delay product. Speculating past a
/// skip risks fetching bytes the stream never reads; not speculating
/// risks a round trip later. Readahead up to the price is never dearer
/// than the round trip it may save, so a skip-dense region pages
/// conservatively on a link where bytes are dear and keeps its batches
/// where latency dominates. In process the price is 0 and every such
/// cancellation collapses the window. Cancellations that all fall inside
/// single fragments leave the window alone until then. A fragment is the
/// hashing and transfer unit, so a skip inside one saves no byte on the
/// wire — it is no evidence that readahead will fetch bytes the stream
/// never reads, and a serve whose skips are all that small streams at
/// the batch horizon.
///
/// Skipping also has to *pay for itself* — the stream-all fallback. Every
/// hole a skip leaves in a chunk's coverage forces sibling hashes onto the
/// wire that whole-chunk streaming would never ship, and exclusions often
/// arrive after readahead already fetched part of the subtree (the saving
/// shrinks, the proof overhead stays). The planner therefore compares two
/// realized quantities every batch: proof bytes actually shipped (fed back
/// by the fetcher via ReportProofBytes) against ciphertext actually
/// avoided (excluded fragments never fetched). When the overhead
/// overtakes the avoidance, the serve is strictly worse off than full
/// streaming — it flips to stream-all for the rest: the navigator still
/// jumps subtrees, but the wire moves whole chunks with empty proofs.
/// Workloads whose prunes span chunks (where the Skip index wins big)
/// keep avoidance far ahead of overhead and never flip.
///
/// Demands always win: the fragments of the demanded range are planned
/// regardless of classification (the navigator's reads are ground truth).
/// Hints are pure prefetch policy — they can change when bytes cross the
/// wire, never whether the decoded view is correct.
class FetchPlanner {
 public:
  FetchPlanner(uint64_t document_bytes, uint32_t fragment_size,
               uint32_t chunk_size, const PlannerOptions& options);

  /// Look-ahead hint: [begin, end) will be streamed. Rounds outward to
  /// fragment boundaries (a partially wanted fragment must be fetched
  /// whole anyway). Overrides earlier exclusions — later evidence wins.
  void HintWanted(uint64_t begin, uint64_t end);

  /// Skip-oracle cancellation: [begin, end) will not be needed. Rounds
  /// inward to fragment boundaries (boundary fragments carry neighbouring
  /// live bytes). Overrides earlier wanted marks. Caps the readahead
  /// window at the round-trip price, but only from the serve's first
  /// cancellation that covers a whole fragment on: one inside a single
  /// fragment saves no transfer.
  void HintExcluded(uint64_t begin, uint64_t end);

  /// What one round trip on the link is worth in bytes (see
  /// crypto::BatchSource::TransportStats). 0, the default, collapses the
  /// window on every cancellation; a price at or above the batch horizon
  /// never narrows it. Plan() rounds the window down to whole fragments.
  void SetRoundTripPrice(uint64_t bytes) { round_trip_price_bytes_ = bytes; }

  /// The consumer will stream the entire document (no skip capability, or
  /// skipping disabled): everything becomes wanted.
  void HintStreamAll();

  /// Feedback from the fetcher after each batch: how many proof-hash
  /// bytes the response actually carried. Drives the stream-all fallback
  /// (see class comment).
  void ReportProofBytes(uint64_t bytes) { proof_overhead_bytes_ += bytes; }

  /// Number of sibling hashes a Merkle proof for fragments [first, last]
  /// of `chunk` would have to *ship*, given what the SOE's verified-digest
  /// cache already holds (0 when the range verifies bare, the full
  /// ProofForRange count when the chunk is cold). Used by the proof-aware
  /// coverage shaping below; may be null (cold-cache estimate).
  using ProofCostProbe =
      std::function<uint64_t(uint64_t chunk, uint32_t first, uint32_t last)>;

  /// Plans the batch that satisfies the demand [begin, end): the missing
  /// demand fragments, extended through missing wanted fragments and the
  /// adaptive readahead window up to the batch horizon, with
  /// sub-threshold gaps bridged into contiguous runs. `valid[f]` marks
  /// fragments already held — they are never re-planned, and a valid
  /// fragment always splits a run (re-fetching held bytes is the one
  /// waste coalescing must never introduce).
  ///
  /// Proof-aware coverage shaping: every hole in a chunk's planned
  /// coverage costs sibling hashes (20 bytes per shipped proof node) on
  /// the wire, while filling it costs the unneeded fragments' ciphertext.
  /// Per chunk the planner greedily fills each hole whose ciphertext is no
  /// dearer than the proof hashes it removes, then considers completing
  /// the chunk outright (full coverage ships an empty proof). Costs come
  /// from `proof_cost` — the post-trimming wire price, so warm chunks
  /// (material already cached) are never "completed" to save hashes that
  /// would not have shipped anyway. This is the amortization arithmetic
  /// that makes batched reads chunk-shaped on a cold cache, and exactly
  /// demand-shaped on a warm one; it is also what keeps skip-mode wire
  /// under full streaming: a skip hole survives into the request only when
  /// the ciphertext it avoids outweighs the proof overhead it causes,
  /// otherwise the plan falls back toward stream-all of its own accord.
  ///
  /// The returned runs are sorted and disjoint, and always include the
  /// first missing demand fragment (progress guarantee); a demand wider
  /// than the horizon completes over successive calls. They live in the
  /// planner's reused storage, valid until the next Plan() call: planning
  /// a batch allocates nothing once that storage has grown.
  const std::vector<FragmentRun>& Plan(
      uint64_t begin, uint64_t end, const std::vector<bool>& valid,
      const ProofCostProbe& proof_cost = nullptr);

  uint64_t fragment_count() const { return fragment_count_; }
  uint64_t gap_threshold_bytes() const { return gap_threshold_; }
  uint64_t max_batch_bytes() const { return max_batch_; }

  /// Planner-side cost counters.
  struct Stats {
    uint64_t hints_wanted = 0;
    uint64_t hints_excluded = 0;
    uint64_t gap_fragments_bridged = 0;  ///< Unneeded fragments fetched.
    uint64_t chunks_completed = 0;  ///< Rounded to full coverage (proof < gap).
    uint64_t proof_holes_filled = 0;  ///< Coverage holes cheaper than proofs.
    uint64_t speculation_waste_bytes = 0;  ///< Fetched, then excluded.
    uint64_t stream_all_fallbacks = 0;  ///< 1 when this serve flipped.
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Actual document bytes of fragment `f` (tail fragments are short).
  uint64_t FragmentBytes(uint64_t f) const;
  /// Every fragment wanted, none excluded (stream-all).
  void MarkAllWanted();

  uint64_t document_bytes_;
  uint32_t fragment_size_;
  uint32_t chunk_size_;
  uint64_t fragment_count_;
  uint64_t gap_threshold_;
  uint64_t max_batch_;
  /// Per-fragment classification (see class comment), one bit each: a
  /// fragment is wanted, excluded, or neither (unknown).
  std::vector<uint64_t> wanted_;
  std::vector<uint64_t> excluded_;
  /// Adaptive sequential readahead: fragment right after the last planned
  /// batch, and the current window (bytes of unknown fragments a batch may
  /// speculate through). Doubles on sequential demands, capped at
  /// `round_trip_price_bytes_` by HintExcluded (skip evidence) once
  /// `skips_save_fragments_` is set — by the first exclusion covering a
  /// whole fragment.
  uint64_t frontier_ = 0;
  uint64_t readahead_bytes_ = 0;
  bool skips_save_fragments_ = false;
  uint64_t round_trip_price_bytes_ = 0;
  /// Fragments emitted in some batch's runs — what speculation actually
  /// paid for (the waste stat must not count never-fetched holes).
  std::vector<uint8_t> planned_;
  /// Stream-all fallback state (see class comment). `avoided_bytes_` is
  /// the incrementally maintained Σ bytes of excluded-and-never-planned
  /// fragments (mark transitions keep it exact), so the per-batch
  /// overhead-vs-avoidance check is O(1), not O(fragments).
  uint64_t proof_overhead_bytes_ = 0;
  uint64_t avoided_bytes_ = 0;
  bool stream_all_fallback_ = false;
  mutable Stats stats_;
  /// Plan()'s result and its per-fragment include marks, reused.
  std::vector<FragmentRun> runs_;
  std::vector<uint8_t> include_;
};

}  // namespace csxa::index

#endif  // CSXA_INDEX_FETCH_PLANNER_H_

#ifndef CSXA_PIPELINE_AUTHORIZED_VIEW_READER_H_
#define CSXA_PIPELINE_AUTHORIZED_VIEW_READER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "common/status.h"
#include "index/decoder.h"
#include "xml/event.h"

namespace csxa::pipeline {

/// Knobs of the navigate→evaluate→deliver driver.
struct DriveOptions {
  /// Consult the evaluator's skip oracle at each open event and jump
  /// inert/deferred subtrees via the index's size fields. Off = faithful
  /// full streaming (the reference the skip path must be byte-identical
  /// to); deferral needs skipping and is off with it.
  bool enable_skip = true;
  /// The fetcher materializing the navigator's buffer, if any: the driver
  /// feeds it look-ahead hints (skip/defer decisions cancel planned
  /// ranges, an unskippable stream becomes one big planned read, and a
  /// granted deferral or a fully authorized subtree becomes a batched
  /// prefetch, promised once at its root: elements inside a promised
  /// subtree send no hint of their own). Hints never affect the decoded
  /// view, only batching.
  index::Fetcher* fetcher = nullptr;
};

/// What the driver did with the event stream.
struct DriveStats {
  uint64_t skips = 0;          ///< Subtrees pruned before being fetched.
  uint64_t skipped_bits = 0;   ///< Encoded bits those subtrees span.
  uint64_t deferrals = 0;      ///< Pending subtrees skipped-for-later.
  uint64_t rereads = 0;        ///< Granted deferrals spliced back in.
  uint64_t reread_bits = 0;    ///< Encoded bits re-decoded during splices.
  /// Plaintext bytes the fetcher actually pulled during splices — the
  /// honest re-read cost. Smaller than reread_bits/8 whenever boundary
  /// fragments were already held, and on a warm shared cache the pull is
  /// additionally material-free (bare chunk reads).
  uint64_t reread_fetched_bytes = 0;
};

/// One authorized-view event, pulled from an AuthorizedViewReader. It
/// borrows its text, which stays valid until the reader's next Next(): a
/// tag name points into a tag dictionary, a value into the navigator's
/// decode buffer or into the reader's output queue. A consumer that keeps
/// an event past the next pull copies it (xml::Event::Of).
struct ViewItem {
  bool end = false;  ///< True once the view is exhausted; `event` invalid.
  xml::EventView event;
  int depth = 0;
};
static_assert(std::is_trivially_copyable_v<ViewItem>);

/// The SOE-side driver of the paper's architecture, redesigned as a *pull*
/// API: each Next() returns the next event of the authorized view, in
/// document order, and internally advances the navigate→evaluate loop just
/// far enough to produce it.
///
/// The driver consults the evaluator's token analysis
/// (RuleEvaluator::SubtreeDecision, then WholeSubtreeAuthorized) at each
/// element open. A subtree leaves the evaluator's per-event path by one of
/// three exits:
///
///  - skip (kSkip): the subtree is provably inert — SkipSubtree() jumps it
///    before any of its fragments are fetched (Section 4.1's reason for
///    the Skip index to exist). Most skips are settled before the open:
///    when RuleEvaluator::InertChild() proves an unmatched child of an
///    irrevocably denied element inert, the evaluator books its open,
///    skip and close at once (DropInertChild) and SkipElement() jumps the
///    element with its close; no matcher runs for it.
///  - defer (kDefer): the subtree's fate hinges on predicates resolving
///    elsewhere and it is too large to buffer — the driver saves a
///    navigator Checkpoint, skips the bytes, and if (and only if) the
///    evaluator later emits the element as granted, seeks back and
///    re-reads exactly the granted bytes, splicing them into the output at
///    their original document position (Section 5's pending-part
///    re-reads). Denied deferrals cost zero re-read bytes.
///  - verbatim (WholeSubtreeAuthorized, evaluator Idle): the subtree is
///    provably granted in full and nothing undecided is queued ahead of
///    it, so once the element's open has been pulled the driver streams
///    the subtree from the navigator straight to the output, then feeds
///    the evaluator the element's close. A splice is the same verbatim
///    routine plus a SeekTo() back.
///
/// In all three the evaluator sees only the element's open and close. A
/// subtree granted in full while the evaluator is not idle still streams
/// through the evaluator, but its inner elements consult no oracle and
/// send the planner no hint.
///
/// The reader owns the evaluator; the document never materializes in SOE
/// memory beyond the evaluator's (budgeted) pending buffer and one event.
class AuthorizedViewReader {
 public:
  /// `nav` must outlive the reader. `rules` is the rule set already
  /// selected for the requesting subject.
  AuthorizedViewReader(index::DocumentNavigator* nav,
                       std::vector<access::AccessRule> rules,
                       access::RuleEvaluator::Options eval_options,
                       DriveOptions options);
  AuthorizedViewReader(index::DocumentNavigator* nav,
                       std::vector<access::AccessRule> rules)
      : AuthorizedViewReader(nav, std::move(rules),
                             access::RuleEvaluator::Options(),
                             DriveOptions()) {}
  ~AuthorizedViewReader();

  /// Pulls the next authorized-view event; `.end` is true after the last
  /// one. The item's text is valid until the next call. Errors
  /// (integrity, corruption) surface as failed Results.
  Result<ViewItem> Next();

  const DriveStats& stats() const { return stats_; }
  const access::RuleEvaluator::Stats& eval_stats() const {
    return eval_->stats();
  }

 private:
  /// Decided output of the evaluator, queued until pulled. `splice` ≥ 0
  /// marks the position where deferred subtree #splice must be re-read and
  /// merged back (right between the element's open and close events).
  ///
  /// The event's text is `text`: a tag name in the evaluator's dictionary
  /// (fixed once the reader is built: the reader feeds tag ids only), a
  /// value the evaluator had queued as pending, which borrows its text
  /// arena, or a value decided on arrival, which borrows the navigator's
  /// decode buffer. The arena is written only inside an evaluator entry
  /// point, and the reader calls one only once this queue is drained, so
  /// an arena view stays valid until pulled. A value decided on arrival
  /// is forwarded only while the evaluator's queue is empty, with nothing
  /// flushed alongside, so it is the only entry of its DriveOne() and the
  /// navigator is not advanced before it is pulled.
  struct OutEntry {
    xml::EventKind kind = xml::EventKind::kOpen;
    int depth = 0;
    int splice = -1;
    std::string_view text;
  };

  /// Everything needed to re-enter a deferred subtree later.
  struct Deferral {
    index::DocumentNavigator::Checkpoint checkpoint;
    int depth = 0;
    uint64_t subtree_bits = 0;
  };

  class Collector;

  Status DriveOne();               ///< Feed one navigator item to the evaluator.
  Status BeginSplice(size_t id);   ///< Seek into deferred subtree #id.
  Status EndSplice();              ///< Account the re-read and seek back.
  /// The verbatim routine splices and bypasses share: pulls the next
  /// navigator item inside the element open at `depth` into `*v` and
  /// returns true, or returns false on that element's own close.
  Result<bool> NextVerbatim(int depth, ViewItem* v);
  /// Converts a stream-relative subtree extent into document byte offsets
  /// and forwards it to the fetcher as a wanted/cancelled prefetch range.
  void HintSubtree(uint64_t begin_bit, uint64_t size_bits, bool wanted);

  index::DocumentNavigator* nav_;
  DriveOptions options_;
  bool skip_possible_ = false;
  std::unique_ptr<Collector> collector_;
  std::unique_ptr<access::RuleEvaluator> eval_;

  /// Decided output not yet pulled: out_[out_head_..]. Only evaluator
  /// calls append (DriveOne(), and the close after a verbatim bypass), and
  /// only once everything before has been pulled.
  std::vector<OutEntry> out_;
  size_t out_head_ = 0;
  std::vector<Deferral> deferrals_;
  /// Deferrals below this id are decided; their checkpoints' storage went
  /// to spare_checkpoints_.
  size_t deferrals_spent_ = 0;
  std::vector<index::DocumentNavigator::Checkpoint> spare_checkpoints_;
  bool finished_ = false;

  /// Splice state: while active, Next() streams raw events from the
  /// navigator (re-positioned at the deferral's checkpoint) until the
  /// deferred element closes, then seeks back to `resume_`.
  bool splicing_ = false;
  int splice_depth_ = 0;
  uint64_t splice_bits_base_ = 0;
  uint64_t splice_fetch_base_ = 0;
  index::DocumentNavigator::Checkpoint resume_;

  /// Depth of the element whose subtree WholeSubtreeAuthorized() promised
  /// in full (0: none open). Opens below it consult no oracle and send no
  /// hint. While `bypassing_`, Next() streams the subtree verbatim once the
  /// output queue drains, then feeds the evaluator the close of
  /// `granted_tag_`.
  int granted_depth_ = 0;
  bool bypassing_ = false;
  xml::TagId granted_tag_ = 0;

  /// Reusable skip-oracle input: its generation-stamped presence table
  /// holds the current element's descendant-tag bitmap over the document's
  /// tag ids, restamped per open (no per-event allocation).
  access::SubtreeFacts facts_;

  DriveStats stats_;
};

}  // namespace csxa::pipeline

#endif  // CSXA_PIPELINE_AUTHORIZED_VIEW_READER_H_

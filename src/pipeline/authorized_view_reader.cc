#include "pipeline/authorized_view_reader.h"

#include <utility>

namespace csxa::pipeline {

/// EventHandler bridging the evaluator's push output into the reader's
/// pull queue. Splice markers are enqueued by the deferral listener, which
/// the evaluator fires between a granted deferred element's open and close
/// — exactly the document position the subtree belongs at.
class AuthorizedViewReader::Collector : public xml::EventHandler {
 public:
  explicit Collector(std::vector<OutEntry>* out) : out_(out) {}

  void OnOpen(const std::string& tag, int depth) override {
    out_->push_back({xml::EventKind::kOpen, depth, -1, tag});
  }
  /// The evaluator never calls this; it emits values through OnValueView.
  void OnValue(const std::string& value, int depth) override {
    OnValueView(value, depth);
  }
  void OnClose(const std::string& tag, int depth) override {
    out_->push_back({xml::EventKind::kClose, depth, -1, tag});
  }
  /// The evaluator's one value path: a view of its text arena, or of the
  /// navigator's decode buffer for a value decided on arrival (see
  /// OutEntry for how long each stays valid).
  void OnValueView(std::string_view value, int depth) override {
    out_->push_back({xml::EventKind::kValue, depth, -1, value});
  }
  void OnDeferralGranted(size_t id) {
    out_->push_back({xml::EventKind::kOpen, 0, static_cast<int>(id), {}});
  }

 private:
  std::vector<OutEntry>* out_;
};

AuthorizedViewReader::AuthorizedViewReader(
    index::DocumentNavigator* nav, std::vector<access::AccessRule> rules,
    access::RuleEvaluator::Options eval_options, DriveOptions options)
    : nav_(nav),
      options_(options),
      skip_possible_(options.enable_skip && nav->CanSkip()),
      collector_(std::make_unique<Collector>(&out_)),
      eval_(std::make_unique<access::RuleEvaluator>(
          std::move(rules), collector_.get(), eval_options,
          nav->dictionary())) {
  eval_->set_deferral_listener(
      [this](size_t id) { collector_->OnDeferralGranted(id); });
  // The evaluator's dictionary starts as the document's, so the
  // navigator's tag ids index the presence table directly; rule-only tags
  // get ids past its end and are never present.
  facts_.present.assign(nav->dictionary().size(), 0);
  // No skip decision will ever cancel a range: tell the planner the whole
  // stream is wanted, so the fetch degenerates into maximal batches.
  if (options_.fetcher != nullptr && !skip_possible_) {
    options_.fetcher->HintStreamAll();
  }
}

void AuthorizedViewReader::HintSubtree(uint64_t begin_bit, uint64_t size_bits,
                                       bool wanted) {
  if (options_.fetcher == nullptr || size_bits == 0) return;
  const uint64_t so = nav_->stream_offset();
  if (wanted) {
    // Outward rounding: every byte touching the subtree will be read.
    options_.fetcher->HintWanted(so + begin_bit / 8,
                                 so + (begin_bit + size_bits + 7) / 8);
  } else {
    // Inward rounding: the boundary bytes carry the element's own header
    // and close marker, which are still live.
    options_.fetcher->HintExcluded(so + (begin_bit + 7) / 8,
                                   so + (begin_bit + size_bits) / 8);
  }
}

AuthorizedViewReader::~AuthorizedViewReader() = default;

Status AuthorizedViewReader::DriveOne() {
  CSXA_ASSIGN_OR_RETURN(auto item, nav_->Next());
  using K = index::DocumentNavigator::ItemKind;
  switch (item.kind) {
    case K::kEnd:
      CSXA_RETURN_NOT_OK(eval_->Finish());
      finished_ = true;
      break;
    case K::kOpen: {
      // Below an element promised in full every answer is known already
      // (descend, granted), and its bytes were promised to the planner.
      if (!skip_possible_ || granted_depth_ != 0) {
        eval_->OnOpen(item.tag_id, item.depth);
        break;
      }
      facts_.tags_known = item.desc != nullptr;
      facts_.no_elements_below = item.desc != nullptr && item.desc->empty();
      facts_.subtree_bytes = item.subtree_bits / 8;
      if (item.desc != nullptr) {
        const uint32_t generation = ++facts_.generation;
        for (xml::TagId t : *item.desc) facts_.present[t] = generation;
      }
      if (eval_->InertChild(item.tag_id, item.depth, facts_)) {
        // The kSkip the full path would reach, decided before the open:
        // the evaluator books the element's open, skip and close without
        // running a matcher, and the navigator jumps it, close included.
        eval_->DropInertChild(item.tag_id, item.depth);
        HintSubtree(item.subtree_begin_bit, item.subtree_bits,
                    /*wanted=*/false);
        CSXA_RETURN_NOT_OK(nav_->SkipElement());
        ++stats_.skips;
        stats_.skipped_bits += item.subtree_bits;
        break;
      }
      eval_->OnOpen(item.tag_id, item.depth);
      switch (eval_->SubtreeDecision(facts_, item.depth)) {
        case access::SkipDecision::kDescend:
          // Look-ahead: a subtree that will provably stream in full is
          // promised to the fetch planner, once, which batches its
          // fragments into few round trips instead of demand-paging them.
          if (eval_->WholeSubtreeAuthorized(facts_, item.depth)) {
            HintSubtree(item.subtree_begin_bit, item.subtree_bits,
                        /*wanted=*/true);
            granted_depth_ = item.depth;
            // With nothing undecided ahead of it, the subtree goes out
            // verbatim right after the element's open; the evaluator sees
            // only the open and the close, as around a skip.
            if (eval_->Idle()) {
              bypassing_ = true;
              granted_tag_ = item.tag_id;
            }
          }
          break;
        case access::SkipDecision::kSkip:
          // The whole children region is provably inert: jump it via the
          // size field. Its fragments are never requested from the
          // terminal — and the planner cancels any not-yet-issued
          // read-ahead that would have covered them.
          HintSubtree(item.subtree_begin_bit, item.subtree_bits,
                      /*wanted=*/false);
          CSXA_RETURN_NOT_OK(nav_->SkipSubtree());
          ++stats_.skips;
          stats_.skipped_bits += item.subtree_bits;
          break;
        case access::SkipDecision::kDefer: {
          // Pending and too large to buffer: remember where the children
          // region starts (the navigator sits exactly there, with the
          // element's frame on top) and jump it. The bytes are fetched
          // later — only if the decision resolves to permit.
          const size_t id = eval_->RegisterDeferral();
          if (deferrals_.size() <= id) deferrals_.resize(id + 1);
          Deferral& deferral = deferrals_[id];
          if (!spare_checkpoints_.empty()) {
            deferral.checkpoint = std::move(spare_checkpoints_.back());
            spare_checkpoints_.pop_back();
          }
          nav_->SaveTo(&deferral.checkpoint);
          deferral.depth = item.depth;
          deferral.subtree_bits = item.subtree_bits;
          HintSubtree(item.subtree_begin_bit, item.subtree_bits,
                      /*wanted=*/false);
          CSXA_RETURN_NOT_OK(nav_->SkipSubtree());
          ++stats_.deferrals;
          break;
        }
      }
      break;
    }
    case K::kValue:
      eval_->OnValueView(item.value, item.depth);
      break;
    case K::kClose:
      if (item.depth == granted_depth_) granted_depth_ = 0;
      eval_->OnClose(item.tag_id, item.depth);
      break;
  }
  return Status::OK();
}

Status AuthorizedViewReader::BeginSplice(size_t id) {
  if (id >= deferrals_.size()) {
    return Status::Internal("deferral id out of range");
  }
  nav_->SaveTo(&resume_);
  // The grant re-activates the once-cancelled range: promise it to the
  // planner so the re-read arrives in batches (verified bare against the
  // digest cache wherever its chunks were already authenticated).
  HintSubtree(deferrals_[id].checkpoint.bit_pos, deferrals_[id].subtree_bits,
              /*wanted=*/true);
  CSXA_RETURN_NOT_OK(nav_->SeekTo(deferrals_[id].checkpoint));
  // Deferred opens flush in id order, so every deferral up to this one is
  // decided: their checkpoints are spent, and their storage serves the
  // next deferrals' saves.
  for (; deferrals_spent_ <= id; ++deferrals_spent_) {
    spare_checkpoints_.push_back(
        std::move(deferrals_[deferrals_spent_].checkpoint));
  }
  splicing_ = true;
  splice_depth_ = deferrals_[id].depth;
  splice_bits_base_ = nav_->bits_read();
  splice_fetch_base_ =
      options_.fetcher != nullptr ? options_.fetcher->bytes_fetched() : 0;
  ++stats_.rereads;
  return Status::OK();
}

Result<bool> AuthorizedViewReader::NextVerbatim(int depth, ViewItem* v) {
  CSXA_ASSIGN_OR_RETURN(auto item, nav_->Next());
  using K = index::DocumentNavigator::ItemKind;
  switch (item.kind) {
    case K::kEnd:
      return Status::Corruption("stream ended inside a verbatim subtree");
    case K::kOpen:
      v->event = {xml::EventKind::kOpen, nav_->dictionary().Name(item.tag_id)};
      break;
    case K::kValue:
      v->event = {xml::EventKind::kValue, item.value};
      break;
    case K::kClose:
      if (item.depth == depth) return false;
      v->event = {xml::EventKind::kClose, nav_->dictionary().Name(item.tag_id)};
      break;
  }
  v->depth = item.depth;
  return true;
}

Status AuthorizedViewReader::EndSplice() {
  stats_.reread_bits += nav_->bits_read() - splice_bits_base_;
  if (options_.fetcher != nullptr) {
    stats_.reread_fetched_bytes +=
        options_.fetcher->bytes_fetched() - splice_fetch_base_;
  }
  splicing_ = false;
  return nav_->SeekTo(resume_);
}

Result<ViewItem> AuthorizedViewReader::Next() {
  while (true) {
    if (splicing_) {
      // A granted deferral is emitted verbatim: the deferral conditions
      // proved no rule automaton of either sign could match inside, so
      // every node in the subtree inherits exactly the element's (now
      // permitted) decision. Its own close is not re-emitted here: the
      // evaluator's queued close follows in the output queue.
      ViewItem v;
      CSXA_ASSIGN_OR_RETURN(const bool inside, NextVerbatim(splice_depth_, &v));
      if (inside) return v;
      CSXA_RETURN_NOT_OK(EndSplice());
      continue;  // Resume the normal queue.
    }
    if (out_head_ < out_.size()) {
      const OutEntry& e = out_[out_head_++];
      if (e.splice >= 0) {
        CSXA_RETURN_NOT_OK(BeginSplice(static_cast<size_t>(e.splice)));
        continue;
      }
      return ViewItem{false, {e.kind, e.text}, e.depth};
    }
    // Drained: the next DriveOne() refills from the start, reusing the
    // storage.
    out_.clear();
    out_head_ = 0;
    if (bypassing_) {
      // Everything before the granted element, its open included, has
      // been pulled. WholeSubtreeAuthorized() proved every node inside
      // inherits the element's permit, so its events are the view's.
      ViewItem v;
      CSXA_ASSIGN_OR_RETURN(const bool inside,
                            NextVerbatim(granted_depth_, &v));
      if (inside) return v;
      bypassing_ = false;
      eval_->OnClose(granted_tag_, granted_depth_);
      granted_depth_ = 0;
      continue;
    }
    if (finished_) {
      ViewItem v;
      v.end = true;
      return v;
    }
    CSXA_RETURN_NOT_OK(DriveOne());
  }
}

}  // namespace csxa::pipeline

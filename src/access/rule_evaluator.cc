#include "access/rule_evaluator.h"

#include <algorithm>
#include <utility>

// Parked pool instances are poisoned under AddressSanitizer (gcc defines
// __SANITIZE_ADDRESS__, clang reports the feature).
#if defined(__SANITIZE_ADDRESS__)
#define CSXA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CSXA_ASAN 1
#endif
#endif

#ifdef CSXA_ASAN
#include <sanitizer/asan_interface.h>
#define CSXA_POISON(p, n) ASAN_POISON_MEMORY_REGION((p), (n))
#define CSXA_UNPOISON(p, n) ASAN_UNPOISON_MEMORY_REGION((p), (n))
#else
#define CSXA_POISON(p, n) ((void)(p), (void)(n))
#define CSXA_UNPOISON(p, n) ((void)(p), (void)(n))
#endif

namespace csxa::access {

namespace internal {

void CondSet::Reserve(uint32_t n) {
  auto* grown = new PredInstance*[n];
  std::copy(data(), data() + size_, grown);
  if (!inline_storage()) delete[] heap_;
  heap_ = grown;
  capacity_ = n;
}

void PredInstance::StartCollection(int node_depth, CondSet&& conds) {
  if (live_collections_ == collections_.size()) collections_.emplace_back();
  Collection& c = collections_[live_collections_++];
  c.node_depth = node_depth;
  c.value.clear();
  c.conds = std::move(conds);
}

void PredInstance::EndCollection(size_t i) {
  // Rotate the ended entry past the live ones: swaps keep every string's
  // storage in the vector.
  collections_[i].conds.clear();
  std::rotate(collections_.begin() + static_cast<ptrdiff_t>(i),
              collections_.begin() + static_cast<ptrdiff_t>(i) + 1,
              collections_.begin() + static_cast<ptrdiff_t>(live_collections_));
  --live_collections_;
}

InstancePool::~InstancePool() {
  // Every holder is gone by now (the evaluator declares the pool first),
  // so every instance is parked and poisoned.
  for (PredInstance* inst : free_) CSXA_UNPOISON(inst, sizeof(PredInstance));
}

PredInstance* InstancePool::Acquire(const xpath::Predicate* pred,
                                    const std::vector<xml::TagId>* tags,
                                    int depth) {
  PredInstance* inst;
  if (free_.empty()) {
    owned_.push_back(std::make_unique<PredInstance>());
    inst = owned_.back().get();
    inst->pool = this;
  } else {
    inst = free_.back();
    free_.pop_back();
    CSXA_UNPOISON(inst, sizeof(PredInstance));
  }
  inst->pred = pred;
  inst->root_depth = depth;
  inst->state = PredInstance::State::kPending;
  inst->matcher.Reset(&pred->steps, tags, depth);
  return inst;
}

void InstancePool::Release(PredInstance* inst) {
  to_release_.push_back(inst);
  if (releasing_now_) return;  // The loop below takes it.
  releasing_now_ = true;
  while (!to_release_.empty()) {
    PredInstance* p = to_release_.back();
    to_release_.pop_back();
    // Dropping these may release nested instances onto to_release_.
    p->candidates.clear();
    while (p->collecting() != 0) p->EndCollection(p->collecting() - 1);
    p->matcher.ClearTokens();
    p->watchers.clear();
    CSXA_POISON(p, sizeof(PredInstance));
    free_.push_back(p);
  }
  releasing_now_ = false;
}

void PathMatcher::Reset(const std::vector<xpath::Step>* steps,
                        const std::vector<xml::TagId>* tags, int base_depth) {
  steps_ = steps;
  tags_ = tags;
  base_depth_ = base_depth;
  if (stack_.empty()) stack_.emplace_back();
  Frame& root = stack_[0];
  root.exact.clear();
  root.desc.clear();
  if (!steps_->empty() && (*steps_)[0].axis == xpath::Axis::kDescendant) {
    root.desc.emplace_back();
  } else {
    root.exact.emplace_back();
  }
  live_ = 1;
}

void PathMatcher::ClearTokens() {
  for (Frame& f : stack_) {
    f.exact.clear();
    f.desc.clear();
  }
}

void PathMatcher::OnOpen(xml::TagId tag, int depth,
                         RuleEvaluatorContext* ctx,
                         std::vector<CondSet>* full_matches) {
  // Self-align on the context node: events at or above base_depth_ (or
  // out of step with the frames) are outside this matcher's subtree.
  if (depth != base_depth_ + static_cast<int>(live_)) return;
  if (stack_.size() == live_) stack_.emplace_back();
  const Frame& top = stack_[live_ - 1];
  Frame& next = stack_[live_];
  // Tokens stay alive below a descendant-axis step for the whole subtree.
  // assign() into the pooled frame reuses its retained capacity.
  next.exact.clear();
  next.desc.assign(top.desc.begin(), top.desc.end());

  auto advance = [&](const TokenState& t) {
    const xml::TagId test = (*tags_)[t.next_step];
    if (test != kAnyTag && test != tag) return;
    const xpath::Step& step = (*steps_)[t.next_step];
    TokenState adv{t.next_step + 1, t.conds};
    for (const xpath::Predicate& pred : step.predicates) {
      adv.conds.push_back(ctx->Spawn(&pred, depth));
    }
    if (adv.next_step == steps_->size()) {
      full_matches->push_back(std::move(adv.conds));
      return;
    }
    // Each token lives in exactly one set: `exact` feeds child-axis
    // advancement at the next level only, `desc` survives down the
    // whole subtree.
    if ((*steps_)[adv.next_step].axis == xpath::Axis::kDescendant) {
      next.desc.push_back(std::move(adv));
    } else {
      next.exact.push_back(std::move(adv));
    }
  };

  // Child-axis continuations only extend paths that end exactly at the
  // parent; descendant-axis continuations fire from any ancestor.
  for (const TokenState& t : top.exact) {
    if ((*steps_)[t.next_step].axis == xpath::Axis::kChild) advance(t);
  }
  // advance() appends to next.desc while this walks top.desc — distinct
  // pooled frames, so no iterator is invalidated.
  for (const TokenState& t : top.desc) advance(t);

  ++live_;
}

void PathMatcher::OnClose(int depth) {
  if (live_ > 1 && depth == base_depth_ + static_cast<int>(live_) - 1) {
    --live_;  // The popped frame parks in the pool, capacity intact.
  }
}

bool PathMatcher::Feasible(const TokenState& t,
                           const SubtreeFacts& facts) const {
  if (!facts.tags_known) return true;  // No bitmap: cannot rule it out.
  for (size_t s = t.next_step; s < tags_->size(); ++s) {
    const xml::TagId test = (*tags_)[s];
    if (test != kAnyTag && !facts.MayContain(test)) return false;
  }
  return true;
}

bool PathMatcher::CanCompleteWithin(const SubtreeFacts& facts) const {
  // Any full match below needs at least one more element open.
  if (facts.tags_known && facts.no_elements_below) return false;
  for (const TokenState& t : stack_[live_ - 1].exact) {
    if (Feasible(t, facts)) return true;
  }
  return DescCanCompleteWithin(facts);
}

bool PathMatcher::DescCanCompleteWithin(const SubtreeFacts& facts) const {
  if (facts.tags_known && facts.no_elements_below) return false;
  for (const TokenState& t : stack_[live_ - 1].desc) {
    if (Feasible(t, facts)) return true;
  }
  return false;
}

bool PathMatcher::MayAdvanceOn(xml::TagId tag, int depth) const {
  if (depth != base_depth_ + static_cast<int>(live_)) return true;
  const Frame& top = stack_[live_ - 1];
  auto accepts = [&](const TokenState& t) {
    const xml::TagId test = (*tags_)[t.next_step];
    return test == kAnyTag || test == tag;
  };
  // The same two sets OnOpen() advances, in the same way.
  for (const TokenState& t : top.exact) {
    if ((*steps_)[t.next_step].axis == xpath::Axis::kChild && accepts(t)) {
      return true;
    }
  }
  for (const TokenState& t : top.desc) {
    if (accepts(t)) return true;
  }
  return false;
}

}  // namespace internal

using internal::CondSet;
using internal::PredInstance;

// ---------------------------------------------------------------------------
// Evaluator internals
// ---------------------------------------------------------------------------

struct RuleEvaluator::NodeRec {
  /// A rule targeting this very node. Its specificity is the node's depth,
  /// so one node's hits form exactly one precedence level.
  struct Hit {
    const AccessRule* rule = nullptr;
    CondSet conds;  ///< Pending predicates the match traversed.
  };

  int depth = 0;
  NodeRec* parent = nullptr;
  /// Hits whose target is this very node; Decide() walks the parent chain
  /// for the inherited (propagated) ones.
  std::vector<Hit> hits;
  /// Decide()'s memo: kPermit or kDeny once reached (both irrevocable),
  /// kPending while undecided.
  Decision decision = Decision::kPending;

  bool closed = false;
  size_t open_qpos = 0;
  size_t close_qpos = 0;  ///< Valid once closed.

  /// Undecided value events directly inside, plus child elements not yet
  /// settled. Zero means every event strictly inside (open_qpos,
  /// close_qpos) is decided — the gate for pruning a denied element — and
  /// it is kept in O(1) per event: no ancestor walk.
  size_t undecided_inside = 0;
  /// Closed, own open/close decided and nothing undecided inside; a
  /// settled child no longer counts in its parent's undecided_inside.
  bool settled = false;

  enum class OpenState { kUndecided, kEmit, kDrop };
  OpenState open_state = OpenState::kUndecided;

  /// ≥ 0 when the element's subtree was skipped unseen under the deferral
  /// strategy: the id the driver re-reads the subtree by if the open is
  /// eventually emitted.
  int deferral_id = -1;
};

struct RuleEvaluator::OutEvent {
  xml::EventKind kind = xml::EventKind::kOpen;
  int depth = 0;
  EventStatus status = EventStatus::kUndecided;
  /// Open/close: the element itself. Value: the parent element (null for
  /// text outside the root).
  NodeRec* node = nullptr;
  xml::TagId tag = 0;  ///< Open/close: the element's tag id.
  /// Value: its text's position and size in the text arena.
  size_t text_pos = 0;
  size_t text_size = 0;

  /// Pending instances this event already registered a watcher with, so
  /// re-examinations (and several hits blocked on one instance) never
  /// subscribe the same (event, instance) pair twice. The event's node
  /// (or an ancestor) holds each instance in a hit while the event waits.
  /// Emptied at flush; the slot keeps the storage.
  std::vector<const PredInstance*> subscribed;
};

RuleEvaluator::RuleEvaluator(std::vector<AccessRule> rules,
                             xml::EventHandler* out, Options options,
                             const xml::TagDictionary& document_tags)
    : rules_(std::move(rules)),
      out_(out),
      options_(options),
      tags_(document_tags),
      blocks_(1) {
  matchers_.reserve(rules_.size());
  for (const AccessRule& r : rules_) {
    CompileSteps(r.path.steps);
    matchers_.push_back(std::make_unique<internal::PathMatcher>(
        &r.path.steps, &step_tags_.at(&r.path.steps), /*base=*/0));
  }
}

RuleEvaluator::~RuleEvaluator() {
  for (PredInstance* inst : instances_) internal::Drop(inst);
}

void RuleEvaluator::CompileSteps(const std::vector<xpath::Step>& steps) {
  // unordered_map references survive rehashing, so `ids` stays valid
  // across the recursive inserts.
  std::vector<xml::TagId>& ids = step_tags_[&steps];
  ids.clear();
  for (const xpath::Step& step : steps) {
    ids.push_back(step.wildcard ? internal::kAnyTag : tags_.Intern(step.name));
    for (const xpath::Predicate& pred : step.predicates) {
      CompileSteps(pred.steps);
    }
  }
}

PredInstance* RuleEvaluator::Spawn(const xpath::Predicate* pred, int depth) {
  // Several tokens crossing the same predicated step during one open event
  // share one instance (the predicate is relative to the same node).
  for (const auto& [memo_pred, inst] : spawn_memo_) {
    if (memo_pred == pred) return inst;
  }
  PredInstance* inst =
      pool_.Acquire(pred, &step_tags_.at(&pred->steps), depth);
  internal::Retain(inst);
  instances_.push_back(inst);
  spawn_memo_.emplace_back(pred, inst);
  ++stats_.predicates_spawned;
  return inst;
}

RuleEvaluator::OutEvent& RuleEvaluator::EventAt(size_t qpos) {
  return blocks_[(qpos / kQueueBlock) & (blocks_.size() - 1)]
                [qpos % kQueueBlock];
}

RuleEvaluator::OutEvent& RuleEvaluator::PushEvent(xml::EventKind kind,
                                                  int depth, NodeRec* node) {
  const size_t qpos = queue_base_ + queue_size_;
  const size_t block = qpos / kQueueBlock;
  const size_t first_block = queue_base_ / kQueueBlock;
  if (qpos % kQueueBlock == 0 && block - first_block == blocks_.size()) {
    // Every block slot holds live events: double the ring of blocks and
    // re-home the live ones (pointers only; no event moves).
    std::vector<std::unique_ptr<OutEvent[]>> grown(2 * blocks_.size());
    for (size_t b = first_block; b < block; ++b) {
      grown[b & (grown.size() - 1)] =
          std::move(blocks_[b & (blocks_.size() - 1)]);
    }
    blocks_.swap(grown);
  }
  // A slot past the live blocks is empty or holds a block whose events
  // have all flushed; the latter is reused as is.
  std::unique_ptr<OutEvent[]>& slot = blocks_[block & (blocks_.size() - 1)];
  if (slot == nullptr) slot = std::make_unique<OutEvent[]>(kQueueBlock);
  ++queue_size_;
  OutEvent& e = EventAt(qpos);
  e.kind = kind;
  e.depth = depth;
  e.status = EventStatus::kUndecided;
  e.node = node;
  return e;
}

size_t RuleEvaluator::PayloadBytes(const OutEvent& e) const {
  return e.kind == xml::EventKind::kValue ? e.text_size
                                          : tags_.Name(e.tag).size();
}

size_t RuleEvaluator::QueueText(std::string_view value) {
  // Called before the value's event is pushed, so an empty queue means
  // every arena text has flushed — and been pulled: the arena is written
  // only here, once per queued value.
  if (queue_size_ == 0) {
    arena_base_ += text_arena_.size();
    arena_flushed_ = arena_base_;
    text_arena_.clear();
  } else if (2 * (arena_flushed_ - arena_base_) > text_arena_.size()) {
    const size_t flushed = arena_flushed_ - arena_base_;
    text_arena_.erase(0, flushed);
    arena_base_ += flushed;
  }
  const size_t pos = arena_base_ + text_arena_.size();
  text_arena_.append(value);
  return pos;
}

RuleEvaluator::NodeRec* RuleEvaluator::AcquireNode() {
  if (free_nodes_.empty()) {
    node_pool_.push_back(std::make_unique<NodeRec>());
    return node_pool_.back().get();
  }
  NodeRec* node = free_nodes_.back();
  free_nodes_.pop_back();
  // Reset to a fresh record; the (already empty) `hits` keeps its
  // capacity.
  std::vector<NodeRec::Hit> hits = std::move(node->hits);
  *node = NodeRec();
  node->hits = std::move(hits);
  return node;
}

namespace {

/// Applicability of a hit / candidate given its pending-predicate set.
enum class CondState { kTrue, kFalse, kPending };

CondState EvalConds(const CondSet& conds,
                    std::vector<PredInstance*>* blockers = nullptr) {
  CondState st = CondState::kTrue;
  for (PredInstance* c : conds) {
    if (c->state == PredInstance::State::kFalse) return CondState::kFalse;
    if (c->state == PredInstance::State::kPending) {
      st = CondState::kPending;
      if (blockers != nullptr) blockers->push_back(c);
    }
  }
  return st;
}

}  // namespace

Decision RuleEvaluator::Decide(NodeRec& node, Blockers* blockers) {
  // Applicable hits are the node's own plus every ancestor's
  // (propagation), reached by walking the parent chain rather than copying
  // hit vectors into each node.
  //
  // Most specific target takes precedence: walk distinct target depths
  // from the deepest. At one depth: a resolved denial wins (denial takes
  // precedence); a resolved permission wins unless a pending denial at the
  // same depth could still override it; any other pending hit leaves the
  // whole decision open. A depth whose hits all turned false is skipped.
  //
  // Memo: hit sets are fixed once a node is open and predicate states only
  // move kPending -> {kTrue, kFalse}, so a kDeny or kPermit returned here
  // is irrevocable — the property the skip oracle builds on — and is
  // cached. A node without own hits has exactly its parent's applicable
  // hits, so once the parent is decided the node is too, in O(1).
  if (node.decision != Decision::kPending) return node.decision;
  if (node.hits.empty() && node.parent != nullptr &&
      node.parent->decision != Decision::kPending) {
    node.decision = node.parent->decision;
    return node.decision;
  }
  std::vector<int>& depths = depths_scratch_;
  depths.clear();
  for (const NodeRec* n = &node; n != nullptr; n = n->parent) {
    if (!n->hits.empty()) depths.push_back(n->depth);
  }
  std::sort(depths.rbegin(), depths.rend());
  depths.erase(std::unique(depths.begin(), depths.end()), depths.end());

  Decision d = Decision::kDeny;  // Closed-world default.
  for (int level : depths) {
    bool resolved_neg = false, resolved_pos = false;
    bool pending = false, pending_neg = false;
    for (const NodeRec* n = &node; n != nullptr; n = n->parent) {
      if (n->depth != level) continue;
      for (const auto& h : n->hits) {
        switch (EvalConds(h.conds, blockers)) {
          case CondState::kFalse:
            break;
          case CondState::kTrue:
            (h.rule->sign == Sign::kDeny ? resolved_neg : resolved_pos) =
                true;
            break;
          case CondState::kPending:
            pending = true;
            if (h.rule->sign == Sign::kDeny) pending_neg = true;
            break;
        }
      }
    }
    if (resolved_neg) {
      d = Decision::kDeny;
      break;
    }
    if (resolved_pos) {
      d = pending_neg ? Decision::kPending : Decision::kPermit;
      break;
    }
    if (pending) {
      d = Decision::kPending;
      break;
    }
  }
  if (d != Decision::kPending) node.decision = d;
  return d;
}

SkipDecision RuleEvaluator::SubtreeDecision(const SubtreeFacts& facts,
                                            int depth) {
  ++stats_.skip_checks;
  if (element_stack_.empty() || element_stack_.back()->depth != depth) {
    return SkipDecision::kDescend;  // Misaligned caller: never unsafe.
  }
  // 1. A permitted element must stream its content; denied and pending
  //    elements are skip/defer candidates, gated below.
  const Decision decision = Decide(*element_stack_.back());
  if (decision == Decision::kPermit) return SkipDecision::kDescend;
  // 2. A pending predicate gathering evidence in this subtree governs
  //    buffered events elsewhere (e.g. already-seen siblings) — and, for a
  //    pending element, possibly the element itself. A live value
  //    collection always forces a descent — text nodes are invisible to
  //    the descendant-tag bitmap.
  for (const PredInstance* inst : instances_) {
    if (inst->state != PredInstance::State::kPending) continue;
    if (inst->collecting() != 0) return SkipDecision::kDescend;
    if (inst->matcher.CanCompleteWithin(facts)) return SkipDecision::kDescend;
  }
  if (decision == Decision::kDeny) {
    // 3. A deeper positive target inside the subtree would override the
    //    denial (most-specific-takes-precedence). Negative rules cannot
    //    change anything below an irrevocable deny: their hits and spawned
    //    predicates would only govern nodes of this — entirely denied —
    //    subtree.
    for (size_t r = 0; r < rules_.size(); ++r) {
      if (rules_[r].sign != Sign::kPermit) continue;
      if (matchers_[r]->CanCompleteWithin(facts)) {
        return SkipDecision::kDescend;
      }
    }
    ++stats_.skips_advised;
    return SkipDecision::kSkip;
  }
  // decision == kPending: the element hinges on predicates whose evidence
  // — by step 2 — lies entirely outside this subtree. The budget is a
  // *global* bound, so the subtree is charged against what remains of it
  // after the bytes already buffered (many small pending siblings must not
  // accumulate past the budget). Within the remainder the classic strategy
  // (stream and buffer until the predicates resolve) is cheaper; beyond
  // it, deferral is offered if the subtree provably cannot host a rule
  // match of *either* sign: a granted deferral is re-read and emitted
  // verbatim, so no deeper target may re-decide any inside node.
  const uint64_t remaining =
      options_.pending_buffer_budget > buffered_bytes_
          ? options_.pending_buffer_budget - buffered_bytes_
          : 0;
  if (facts.subtree_bytes <= remaining) {
    return SkipDecision::kDescend;
  }
  for (size_t r = 0; r < rules_.size(); ++r) {
    if (matchers_[r]->CanCompleteWithin(facts)) return SkipDecision::kDescend;
  }
  ++stats_.defers_advised;
  return SkipDecision::kDefer;
}

bool RuleEvaluator::WholeSubtreeAuthorized(const SubtreeFacts& facts,
                                           int depth) {
  if (element_stack_.empty() || element_stack_.back()->depth != depth) {
    return false;  // Misaligned caller: never promise.
  }
  // 1. The element itself must be irrevocably permitted (kPermit is stable
  //    — see Decide()); pending or denied elements stream selectively.
  if (Decide(*element_stack_.back()) != Decision::kPermit) return false;
  // 2. No pending predicate may gather evidence inside: a value collection
  //    or a possible predicate-path match below could flip decisions of
  //    buffered events, and a subtree streamed verbatim past the evaluator
  //    would never deliver that evidence.
  for (const PredInstance* inst : instances_) {
    if (inst->state != PredInstance::State::kPending) continue;
    if (inst->collecting() != 0) return false;
    if (inst->matcher.CanCompleteWithin(facts)) return false;
  }
  // 3. No rule automaton of either sign can reach a target inside: a
  //    deeper positive target is harmless (already permitted) but could
  //    spawn pending predicates; a deeper negative target would deny — and
  //    therefore skip — a descendant subtree. Either way the "streams in
  //    full" promise would break, and a verbatim stream would disclose
  //    what the denial covers.
  for (const auto& matcher : matchers_) {
    if (matcher->CanCompleteWithin(facts)) return false;
  }
  ++stats_.full_grants_advised;
  return true;
}

bool RuleEvaluator::InertChild(xml::TagId tag, int depth,
                               const SubtreeFacts& facts) const {
  // 5. A pending settlement would make OnOpen's Resolve() do work.
  if (candidates_dirty_ || !wave_.empty()) return false;
  // 1. The memo only: kDeny there is irrevocable (see Decide()).
  if (element_stack_.empty()) return false;
  const NodeRec* parent = element_stack_.back();
  if (parent->depth != depth - 1 || parent->decision != Decision::kDeny) {
    return false;
  }
  for (const PredInstance* inst : instances_) {
    if (inst->state != PredInstance::State::kPending) continue;
    // 3., then 2. and 4. for the instance's path. An instance rooted at or
    // below the child's depth would not see the open at all: leave it to
    // the full path.
    if (depth <= inst->root_depth || inst->collecting() != 0 ||
        inst->matcher.MayAdvanceOn(tag, depth) ||
        inst->matcher.DescCanCompleteWithin(facts)) {
      return false;
    }
  }
  for (size_t r = 0; r < rules_.size(); ++r) {
    // 2. for every rule; 4. for positive ones only: below an irrevocable
    //    deny a negative target changes nothing (see SubtreeDecision()).
    if (matchers_[r]->MayAdvanceOn(tag, depth)) return false;
    if (rules_[r].sign == Sign::kPermit &&
        matchers_[r]->DescCanCompleteWithin(facts)) {
      return false;
    }
  }
  return true;
}

void RuleEvaluator::DropInertChild(xml::TagId tag, int depth) {
  // What OnOpen + SubtreeDecision (kSkip) + OnClose count for the element.
  stats_.events_in += 2;
  ++stats_.skip_checks;
  ++stats_.skips_advised;
  // A settled, denied record that nothing but its own two events refers
  // to; Flush() recycles it with the close, as on the full path.
  NodeRec* node = AcquireNode();
  node->depth = depth;
  node->parent = element_stack_.back();
  node->decision = Decision::kDeny;
  node->open_state = NodeRec::OpenState::kDrop;
  node->closed = true;
  node->settled = true;
  node->open_qpos = queue_base_ + queue_size_;
  node->close_qpos = node->open_qpos + 1;
  for (xml::EventKind kind : {xml::EventKind::kOpen, xml::EventKind::kClose}) {
    OutEvent& e = PushEvent(kind, depth, node);
    e.status = EventStatus::kDrop;
    e.tag = tag;
    buffered_bytes_ += PayloadBytes(e);
  }
  Flush();
}

size_t RuleEvaluator::RegisterDeferral() {
  const size_t id = stats_.subtrees_deferred++;
  element_stack_.back()->deferral_id = static_cast<int>(id);
  return id;
}

void RuleEvaluator::MarkStatus(OutEvent& e, EventStatus status) {
  // Transition an event out of kUndecided exactly once. Only value events
  // count in their element's undecided_inside; an element's own open and
  // close are accounted for by Settle().
  e.status = status;
  if (e.kind == xml::EventKind::kValue && e.node != nullptr) {
    --e.node->undecided_inside;
  }
}

void RuleEvaluator::ForceEmit(NodeRec* node) {
  // Ancestors of a permitted node stay visible (tags only) to preserve the
  // structure of the authorized view.
  while (node != nullptr &&
         node->open_state != NodeRec::OpenState::kEmit) {
    node->open_state = NodeRec::OpenState::kEmit;
    OutEvent& open_ev = EventAt(node->open_qpos);
    if (open_ev.status == EventStatus::kUndecided) {
      MarkStatus(open_ev, EventStatus::kEmit);
    }
    if (node->closed) {
      OutEvent& close_ev = EventAt(node->close_qpos);
      if (close_ev.status == EventStatus::kUndecided) {
        MarkStatus(close_ev, EventStatus::kEmit);
      }
    }
    node = node->parent;
  }
}

void RuleEvaluator::SettleInstance(PredInstance* inst,
                                   PredInstance::State state) {
  inst->state = state;
  wave_.push_back(inst);
  candidates_dirty_ = true;
}

void RuleEvaluator::SettleCandidates() {
  // Pending-predicate fixpoint: an instance turns true as soon as one of
  // its match candidates has all nested conditions true. A candidate's
  // value only moves when an instance settles, so with no settlement and
  // no new candidate since the last fixpoint there is nothing to do.
  if (!candidates_dirty_) return;
  bool changed = true;
  while (changed) {
    changed = false;
    for (PredInstance* inst : instances_) {
      if (inst->state != PredInstance::State::kPending) continue;
      auto& cands = inst->candidates;
      for (auto it = cands.begin(); it != cands.end();) {
        CondState st = EvalConds(*it);
        if (st == CondState::kTrue) {
          SettleInstance(inst, PredInstance::State::kTrue);
          changed = true;
          break;
        }
        it = st == CondState::kFalse ? cands.erase(it) : ++it;
      }
    }
  }
  candidates_dirty_ = false;
}

bool RuleEvaluator::ResolveEvent(size_t qpos) {
  OutEvent& e = EventAt(qpos);
  if (e.status != EventStatus::kUndecided) return false;
  // Events that stay undecided because of pending predicates subscribe to
  // exactly the blocking instances; they are re-examined when (and only
  // when) one of those resolves. `blockers` may name one instance several
  // times (identical token spawns at the same step share an instance, so
  // several hits can be blocked on it) and a re-examination may rediscover
  // instances the event already watches — each (event, instance) pair
  // registers exactly once.
  Blockers& blockers = blockers_scratch_;
  blockers.clear();
  auto subscribe = [&]() {
    for (PredInstance* b : blockers) {
      if (b->state != PredInstance::State::kPending) continue;
      if (std::find(e.subscribed.begin(), e.subscribed.end(), b) !=
          e.subscribed.end()) {
        continue;
      }
      e.subscribed.push_back(b);
      b->watchers.push_back(qpos);
      ++stats_.watcher_subscriptions;
    }
  };
  switch (e.kind) {
    case xml::EventKind::kValue: {
      // Text is disclosed iff its parent element is permitted; denied
      // ancestors of permitted nodes expose tags, never text.
      Decision d = e.node ? Decide(*e.node, &blockers) : Decision::kDeny;
      if (d == Decision::kPermit) {
        MarkStatus(e, EventStatus::kEmit);
        return true;
      }
      if (d == Decision::kDeny) {
        MarkStatus(e, EventStatus::kDrop);
        return true;
      }
      subscribe();
      return false;
    }
    case xml::EventKind::kOpen: {
      Decision d = Decide(*e.node, &blockers);
      if (d == Decision::kPermit) {
        ForceEmit(e.node);
        return true;
      }
      if (d == Decision::kPending) {
        subscribe();
        return false;
      }
      if (e.node->closed && e.node->undecided_inside == 0) {
        // Fully decided subtree with nothing emitted: prune the element
        // altogether. (Not yet closed / not yet decided inside: retried at
        // close time or by Settle() when the last inner event resolves.)
        e.node->open_state = NodeRec::OpenState::kDrop;
        MarkStatus(e, EventStatus::kDrop);
        MarkStatus(EventAt(e.node->close_qpos), EventStatus::kDrop);
        return true;
      }
      return false;
    }
    case xml::EventKind::kClose: {
      if (e.node->open_state == NodeRec::OpenState::kEmit) {
        MarkStatus(e, EventStatus::kEmit);
        return true;
      }
      return false;
    }
  }
  return false;
}

RuleEvaluator::EventStatus RuleEvaluator::DecideOnArrival(xml::EventKind kind,
                                                           NodeRec* node) {
  // Settled instances must first reach the events watching them (Resolve()
  // drains the wave), and a dirty candidate set may still settle some.
  if (candidates_dirty_ || !wave_.empty()) return EventStatus::kUndecided;
  switch (kind) {
    case xml::EventKind::kValue: {
      // Text under an irrevocably denied element is never disclosed, and
      // dropping it emits nothing, so it need not wait behind the queue.
      const Decision d = node != nullptr ? Decide(*node) : Decision::kDeny;
      if (d == Decision::kDeny) return EventStatus::kDrop;
      return d == Decision::kPermit && queue_size_ == 0
                 ? EventStatus::kEmit
                 : EventStatus::kUndecided;
    }
    case xml::EventKind::kOpen:
      // An empty queue means every ancestor's open already went out, so a
      // permitted element needs no ForceEmit() walk.
      return queue_size_ == 0 && Decide(*node) == Decision::kPermit
                 ? EventStatus::kEmit
                 : EventStatus::kUndecided;
    case xml::EventKind::kClose:
      // An empty queue means the element's open flushed while the element
      // was still open, which only an emitted open does, and that every
      // event inside is decided.
      return queue_size_ == 0 ? EventStatus::kEmit : EventStatus::kUndecided;
  }
  return EventStatus::kUndecided;
}

void RuleEvaluator::Settle(NodeRec* node) {
  // An event just resolved under `node` (or `node`'s own open or close):
  // closed elements up the chain may now have fully decided subtrees. A
  // denied one becomes prunable; one whose open and close are decided
  // stops counting in its parent, which may unlock the next ancestor. Each
  // element settles once, so the walks cost O(1) amortized per event.
  while (node != nullptr && node->closed && !node->settled &&
         node->undecided_inside == 0) {
    if (node->open_state == NodeRec::OpenState::kUndecided &&
        !ResolveEvent(node->open_qpos)) {
      return;  // Still pending.
    }
    node->settled = true;
    node = node->parent;
    if (node != nullptr) --node->undecided_inside;
  }
}

void RuleEvaluator::DrainWave() {
  while (!wave_.empty()) {
    PredInstance* inst = wave_.back();
    wave_.pop_back();
    // A settled instance gains no watchers (ResolveEvent() subscribes
    // pending ones only), so its list can be walked from the scratch.
    std::vector<size_t>& watchers = watchers_scratch_;
    watchers.clear();
    watchers.swap(inst->watchers);
    for (size_t qpos : watchers) {
      if (qpos < queue_base_) continue;  // Already flushed.
      if (ResolveEvent(qpos)) Settle(EventAt(qpos).node);
    }
    // A resolution may make other instances' candidates decidable.
    SettleCandidates();
  }
}

void RuleEvaluator::Resolve() {
  SettleCandidates();
  // Tail path: the newly queued event — plus, when it is a close, the
  // matching open: a denied element becomes prunable exactly when it
  // closes, and that check lives on its open event.
  if (queue_size_ != 0) {
    const size_t tail = queue_base_ + queue_size_ - 1;
    OutEvent& last = EventAt(tail);
    if (last.kind == xml::EventKind::kClose &&
        last.node->open_state == NodeRec::OpenState::kUndecided) {
      ResolveEvent(last.node->open_qpos);
    }
    ResolveEvent(tail);
    Settle(last.node);
  }
  DrainWave();
}

void RuleEvaluator::Flush() {
  stats_.peak_buffered = std::max(stats_.peak_buffered, queue_size_);
  stats_.peak_buffered_bytes =
      std::max(stats_.peak_buffered_bytes, buffered_bytes_);
  while (queue_size_ != 0 &&
         EventAt(queue_base_).status != EventStatus::kUndecided) {
    OutEvent& e = EventAt(queue_base_);
    const bool deferred_open =
        e.kind == xml::EventKind::kOpen && e.node->deferral_id >= 0;
    buffered_bytes_ -= PayloadBytes(e);
    if (e.status == EventStatus::kEmit) {
      ++stats_.events_emitted;
      switch (e.kind) {
        case xml::EventKind::kOpen:
          out_->OnOpen(tags_.Name(e.tag), e.depth);
          break;
        case xml::EventKind::kValue:
          out_->OnValueView(
              std::string_view(text_arena_)
                  .substr(e.text_pos - arena_base_, e.text_size),
              e.depth);
          break;
        case xml::EventKind::kClose:
          out_->OnClose(tags_.Name(e.tag), e.depth);
          break;
      }
      if (deferred_open) {
        // The deferred element is granted after all: its (never-streamed)
        // subtree belongs right here, between the open just forwarded and
        // the close that follows — the splice point of the driver's
        // checkpoint re-read.
        ++stats_.deferrals_granted;
        if (deferral_listener_) {
          deferral_listener_(static_cast<size_t>(e.node->deferral_id));
        }
      }
    } else {
      ++stats_.events_pruned;
      if (deferred_open) ++stats_.deferrals_denied;
    }
    // The slot and its subscription storage stay for reuse; a value's
    // text stays in the arena until the next value is queued.
    e.subscribed.clear();
    if (e.kind == xml::EventKind::kValue) {
      arena_flushed_ = e.text_pos + e.text_size;
    }
    if (e.kind == xml::EventKind::kClose) {
      // A close flushes after every event of its element's subtree, so
      // nothing refers to the record any more: recycle it. Its hits go
      // now, releasing the predicate instances their conditions hold.
      e.node->hits.clear();
      free_nodes_.push_back(e.node);
    }
    --queue_size_;
    ++queue_base_;
  }
}

void RuleEvaluator::OnOpen(const std::string& tag, int depth) {
  OnOpen(tags_.Intern(tag), depth);
}

void RuleEvaluator::OnValue(const std::string& value, int depth) {
  OnValueView(value, depth);
}

void RuleEvaluator::OnClose(const std::string& tag, int depth) {
  OnClose(tags_.Intern(tag), depth);
}

void RuleEvaluator::OnOpen(xml::TagId tag, int depth) {
  ++stats_.events_in;
  spawn_memo_.clear();

  // 1. Pending predicates watch the subtree of the element they decorate.
  //    Instances spawned during this very event have root_depth == depth
  //    and are skipped by the guard. Spawning may grow instances_, so the
  //    loop indexes it; each instance itself stays put.
  for (size_t i = 0; i < instances_.size(); ++i) {
    PredInstance* inst = instances_[i];
    if (inst->state != PredInstance::State::kPending) continue;
    if (depth <= inst->root_depth) continue;
    std::vector<CondSet>& fulls = fulls_scratch_;
    fulls.clear();
    inst->matcher.OnOpen(tag, depth, this, &fulls);
    for (CondSet& conds : fulls) {
      if (inst->pred->op == xpath::CompareOp::kExists) {
        if (EvalConds(conds) == CondState::kTrue) {
          SettleInstance(inst, PredInstance::State::kTrue);
        } else {
          inst->candidates.push_back(std::move(conds));
          candidates_dirty_ = true;
        }
      } else {
        // Comparison predicates need the node's string value, complete
        // only when the node closes.
        inst->StartCollection(depth, std::move(conds));
      }
    }
  }

  // 2. Rule automata. Only hits targeting this node are stored; Decide()
  //    reaches the propagated ones through the ancestors.
  NodeRec* node = AcquireNode();
  for (size_t r = 0; r < rules_.size(); ++r) {
    std::vector<CondSet>& fulls = fulls_scratch_;
    fulls.clear();
    matchers_[r]->OnOpen(tag, depth, this, &fulls);
    for (CondSet& conds : fulls) {
      node->hits.push_back({&rules_[r], std::move(conds)});
      ++stats_.rule_hits;
    }
  }

  // 3. Node record.
  NodeRec* parent = element_stack_.empty() ? nullptr : element_stack_.back();
  node->depth = depth;
  node->parent = parent;
  node->open_qpos = queue_base_ + queue_size_;
  if (parent != nullptr) ++parent->undecided_inside;
  element_stack_.push_back(node);
  if (DecideOnArrival(xml::EventKind::kOpen, node) == EventStatus::kEmit) {
    node->open_state = NodeRec::OpenState::kEmit;
    ++stats_.events_emitted;
    out_->OnOpen(tags_.Name(tag), depth);
    return;
  }
  OutEvent& e = PushEvent(xml::EventKind::kOpen, depth, node);
  e.tag = tag;
  buffered_bytes_ += PayloadBytes(e);

  Resolve();
  Flush();
}

void RuleEvaluator::OnValueView(std::string_view value, int depth) {
  ++stats_.events_in;

  // Feed string-value collections of pending comparison predicates.
  for (PredInstance* inst : instances_) {
    if (inst->state != PredInstance::State::kPending) continue;
    for (size_t c = 0; c < inst->collecting(); ++c) {
      PredInstance::Collection& coll = inst->collection(c);
      if (depth > coll.node_depth) coll.value += value;
    }
  }

  NodeRec* parent = element_stack_.empty() ? nullptr : element_stack_.back();
  switch (DecideOnArrival(xml::EventKind::kValue, parent)) {
    case EventStatus::kEmit:
      ++stats_.events_emitted;
      out_->OnValueView(value, depth);
      return;
    case EventStatus::kDrop:
      ++stats_.events_pruned;
      return;
    case EventStatus::kUndecided:
      break;
  }
  if (parent != nullptr) ++parent->undecided_inside;
  const size_t text_pos = QueueText(value);
  OutEvent& e = PushEvent(xml::EventKind::kValue, depth, parent);
  e.text_pos = text_pos;
  e.text_size = value.size();
  buffered_bytes_ += PayloadBytes(e);

  Resolve();
  Flush();
}

void RuleEvaluator::OnClose(xml::TagId tag, int depth) {
  ++stats_.events_in;
  if (element_stack_.empty()) return;  // Malformed stream; Finish() reports.

  // 1. Predicate lifecycle at this close: finish value collections of
  //    nodes closing now, pop matcher frames, and resolve instances whose
  //    root closes (no satisfying match by now means false).
  for (PredInstance* inst : instances_) {
    if (inst->state != PredInstance::State::kPending) continue;
    if (depth > inst->root_depth) {
      inst->matcher.OnClose(depth);
      for (size_t c = 0; c < inst->collecting();) {
        PredInstance::Collection& coll = inst->collection(c);
        if (coll.node_depth != depth) {
          ++c;
          continue;
        }
        if (xpath::EvalCompare(inst->pred->op, coll.value,
                               inst->pred->literal)) {
          if (EvalConds(coll.conds) == CondState::kTrue) {
            SettleInstance(inst, PredInstance::State::kTrue);
          } else {
            inst->candidates.push_back(std::move(coll.conds));
            candidates_dirty_ = true;
          }
        }
        inst->EndCollection(c);
      }
    }
  }

  for (auto& matcher : matchers_) matcher->OnClose(depth);

  // Give nested resolutions a chance to settle candidates before roots
  // closing at this depth are forced false (no satisfying match by now
  // means the predicate failed).
  SettleCandidates();
  for (PredInstance* inst : instances_) {
    if (inst->state != PredInstance::State::kPending) continue;
    if (inst->root_depth == depth) {
      SettleInstance(inst, PredInstance::State::kFalse);
    }
  }

  // 2. Close the element.
  NodeRec* node = element_stack_.back();
  element_stack_.pop_back();
  node->closed = true;
  if (DecideOnArrival(xml::EventKind::kClose, node) == EventStatus::kEmit) {
    ++stats_.events_emitted;
    out_->OnClose(tags_.Name(tag), depth);
    // Settled now: the parent stops counting it, and nothing refers to
    // the record any more (see Flush()).
    Settle(node);
    node->hits.clear();
    free_nodes_.push_back(node);
  } else {
    node->close_qpos = queue_base_ + queue_size_;
    OutEvent& e = PushEvent(xml::EventKind::kClose, depth, node);
    e.tag = tag;
    buffered_bytes_ += PayloadBytes(e);
    Resolve();
    Flush();
  }

  // Prune settled instances from the live list: the list's reference
  // goes, and an instance no hit, token or candidate still refers to
  // returns to the pool.
  size_t kept = 0;
  for (PredInstance* inst : instances_) {
    if (inst->state == PredInstance::State::kPending) {
      instances_[kept++] = inst;
    } else {
      internal::Drop(inst);
    }
  }
  instances_.resize(kept);
}

Status RuleEvaluator::Finish() {
  if (!element_stack_.empty()) {
    return Status::Internal("event stream ended with open elements");
  }
  Resolve();
  Flush();
  if (queue_size_ != 0) {
    return Status::Internal("unresolved events buffered at end of stream");
  }
  return Status::OK();
}

}  // namespace csxa::access

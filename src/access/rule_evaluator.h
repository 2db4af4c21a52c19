#ifndef CSXA_ACCESS_RULE_EVALUATOR_H_
#define CSXA_ACCESS_RULE_EVALUATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "access/access_rule.h"
#include "common/status.h"
#include "xml/event.h"
#include "xml/tag_dictionary.h"
#include "xpath/ast.h"

namespace csxa::access {

/// Tri-valued node authorization while predicates are undecided.
enum class Decision {
  kDeny,
  kPermit,
  kPending,
};

/// What the Skip index reveals about the subtree of the element that was
/// just opened. Consumed by RuleEvaluator::SubtreeDecision; produced by the
/// pipeline from the navigator's decoded descendant-tag bitmap
/// (TCSB/TCSBR), or left at its defaults for streams without tag
/// information (TCS: skipping is still possible when no automaton holds a
/// live token for the subtree).
struct SubtreeFacts {
  /// True when the encoding carries a descendant-tag bitmap.
  bool tags_known = false;
  /// True when the bitmap is empty: no element can occur strictly below
  /// (leaf element). Only meaningful when tags_known.
  bool no_elements_below = false;
  /// Generation-stamped presence table over the evaluator's tag ids (see
  /// RuleEvaluator::tags()): tag `t` can appear strictly below iff
  /// present[t] == generation. Ids past the end of the table — tags the
  /// document never uses — cannot. Re-stamping under a fresh generation
  /// resets the table in O(tags below). Only consulted when tags_known &&
  /// !no_elements_below.
  std::vector<uint32_t> present;
  uint32_t generation = 1;
  bool MayContain(xml::TagId tag) const {
    return tag < present.size() && present[tag] == generation;
  }
  /// Encoded size of the subtree (the index's size field), the quantity the
  /// deferral budget is compared against. 0 when the stream has no size
  /// fields (TC), which disables deferral for the element.
  uint64_t subtree_bytes = 0;
};

/// Answer of the per-element skip oracle.
enum class SkipDecision {
  /// The subtree may contain authorized content, a deeper target that
  /// grants, or evidence a pending predicate needs — it must be streamed.
  kDescend,
  /// The element is irrevocably denied and the subtree is provably inert:
  /// no live token of a positive rule can complete below it and no pending
  /// predicate can gather evidence there. Pruning it unseen cannot change
  /// the authorized view.
  kSkip,
  /// The element's decision hinges on predicates whose evidence lies
  /// entirely *outside* the subtree, no rule automaton of either sign can
  /// match inside it, and its encoded size exceeds the buffering budget:
  /// instead of streaming-and-buffering it, the driver should skip it now,
  /// register a deferral (RegisterDeferral) and re-read the bytes later —
  /// only if the decision resolves to permit. The paper's skip-now-
  /// reread-later strategy for pending parts (Sections 4.1/5).
  kDefer,
};

namespace internal {

struct PredInstance;
class InstancePool;

/// Compiled node test of a wildcard step: matches every tag id.
inline constexpr xml::TagId kAnyTag = UINT32_MAX;

/// Interface the matchers use to instantiate pending predicates.
class RuleEvaluatorContext {
 public:
  virtual ~RuleEvaluatorContext() = default;
  /// The instance of `pred` rooted at `depth`; the caller takes its own
  /// counted reference (CondSet::push_back).
  virtual PredInstance* Spawn(const xpath::Predicate* pred, int depth) = 0;
};

/// Streaming evaluation of one predicate, rooted at the element whose step
/// carried it (Section 4.2: a predicate cannot in general be decided when
/// the element is met; its evaluation stays *pending* until a matching
/// value arrives or the subtree closes).
///
/// Condition attached to a token or a rule hit: the conjunction of the
/// pending predicate instances it traversed. It holds a counted reference
/// to each (PredInstance::refs). Up to kInline instances live inline, so
/// copying the set of a token advance or a hit allocates nothing; past
/// that the set moves to the heap and keeps that storage across copies
/// into it. On every corpus and rule family the copied sets hold 0 (96%)
/// or 1 instance; two slots leave room for one spawn on top.
class CondSet {
 public:
  CondSet() = default;
  CondSet(const CondSet& other) { *this = other; }
  CondSet(CondSet&& other) noexcept { *this = std::move(other); }
  CondSet& operator=(const CondSet& other);
  CondSet& operator=(CondSet&& other) noexcept;
  ~CondSet();

  void push_back(PredInstance* inst);  ///< Takes a reference.
  void clear();                        ///< Drops every reference.
  PredInstance* const* begin() const { return data(); }
  PredInstance* const* end() const { return data() + size_; }

 private:
  static constexpr uint32_t kInline = 2;
  bool inline_storage() const { return capacity_ == kInline; }
  PredInstance** data() { return inline_storage() ? inline_ : heap_; }
  PredInstance* const* data() const {
    return inline_storage() ? inline_ : heap_;
  }
  void Reserve(uint32_t n);

  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;
  union {
    PredInstance* inline_[kInline] = {};
    PredInstance** heap_;
  };
};

/// One token of a rule (or predicate-path) automaton: `next_step` steps
/// already matched, under the conditions in `conds`.
struct TokenState {
  size_t next_step = 0;
  CondSet conds;
};

/// Nondeterministic automaton matching one step sequence of the
/// XP{[],*,//} fragment against the event stream — the paper's
/// one-automaton-per-rule construction. Descendant steps keep tokens alive
/// down the subtree; each open event advances tokens; each full match is
/// reported with the conditions accumulated from predicates.
class PathMatcher {
 public:
  /// Unbound until Reset(); a pooled instance's matcher is rebound per use.
  PathMatcher() = default;
  /// `steps` and `tags` must outlive the matcher. `tags[i]` is step i's
  /// node test compiled to an id of the evaluator's dictionary (kAnyTag for
  /// a wildcard), so matching compares integers. `base_depth` is the depth
  /// of the context node: 0 for absolute rule paths, the predicated
  /// element's depth for predicate paths.
  PathMatcher(const std::vector<xpath::Step>* steps,
              const std::vector<xml::TagId>* tags, int base_depth) {
    Reset(steps, tags, base_depth);
  }

  /// Rebinds the matcher as if freshly constructed with these arguments.
  /// Pooled frames keep their capacity.
  void Reset(const std::vector<xpath::Step>* steps,
             const std::vector<xml::TagId>* tags, int base_depth);
  /// Drops every token, in parked frames too, releasing the instances
  /// their conditions hold; the frames keep their capacity.
  void ClearTokens();

  /// Advances tokens over `<tag>`. Events that are not the next well-nested
  /// open/close below base_depth (e.g. at or above the context node) are
  /// ignored, so the matcher stays aligned by itself. Full matches (the
  /// opened element is a target) are appended to `full_matches`; predicates
  /// traversed en route are instantiated through `ctx`.
  void OnOpen(xml::TagId tag, int depth, RuleEvaluatorContext* ctx,
              std::vector<CondSet>* full_matches);
  void OnClose(int depth);

  /// Skip-oracle reachability: true if some live token could still produce
  /// a full match strictly below the most recently opened element, given
  /// `facts`. A token is live when it sits in the top frame; it is feasible
  /// when every remaining named step's tag can occur in the subtree
  /// (wildcards pass as long as any element can occur at all). Conservative
  /// in the descend direction: never rules out a reachable match.
  bool CanCompleteWithin(const SubtreeFacts& facts) const;

  /// CanCompleteWithin() restricted to the top frame's descendant-axis
  /// tokens: what CanCompleteWithin() would answer after an open that
  /// advanced no token, asked before that open (the child inherits exactly
  /// these tokens).
  bool DescCanCompleteWithin(const SubtreeFacts& facts) const;

  /// True if OnOpen(tag, depth) could advance some token — the next open
  /// would then extend a path, spawn predicates or report a full match.
  /// False only when every live token's next step rejects `tag`. An event
  /// OnOpen() would ignore as misaligned answers true (never unsafe).
  bool MayAdvanceOn(xml::TagId tag, int depth) const;

 private:
  const std::vector<xpath::Step>* steps_ = nullptr;
  const std::vector<xml::TagId>* tags_ = nullptr;
  int base_depth_ = 0;
  struct Frame {
    std::vector<TokenState> exact;  ///< Prefix matched ending at this node.
    std::vector<TokenState> desc;   ///< Waiting on a descendant-axis match.
  };
  /// Frame pool: stack_[0..live_) are the active frames (stack_[0] = the
  /// virtual context node); slots above live_ keep their vectors'
  /// capacity, so the push on every element open reuses storage instead
  /// of allocating (PR 2 flagged the per-event churn).
  std::vector<Frame> stack_;
  size_t live_ = 0;

  /// True when every remaining named step of `t` can occur below, per
  /// `facts` (always true without a bitmap).
  bool Feasible(const TokenState& t, const SubtreeFacts& facts) const;
};

/// A predicate instance lives in its evaluator's InstancePool and is held
/// through counted references: the conditions of tokens, hits, candidates
/// and collections (CondSet) and the evaluator's list of live instances.
/// The count is a plain integer: an evaluator, its pool and every holder
/// belong to one serve and are only touched by the thread driving it.
/// When the count drops to zero the pool takes the instance back; the
/// next Spawn() reuses it with its storage.
struct PredInstance {
  enum class State { kPending, kTrue, kFalse };

  const xpath::Predicate* pred = nullptr;
  int root_depth = 0;  ///< Depth of the element the predicate decorates.
  State state = State::kPending;
  PathMatcher matcher;

  /// A full match of the predicate path whose own (nested) conditions are
  /// not yet resolved; the instance turns true when any candidate's
  /// conditions all come true.
  std::vector<CondSet> candidates;

  /// Accumulates the string value of a matched node until it closes, for
  /// comparison predicates (`[Type = G3]`).
  struct Collection {
    int node_depth = 0;
    std::string value;
    CondSet conds;
  };
  /// The live collections, in the order they started.
  size_t collecting() const { return live_collections_; }
  Collection& collection(size_t i) { return collections_[i]; }
  void StartCollection(int node_depth, CondSet&& conds);
  /// Ends collection `i`; the later ones keep their order.
  void EndCollection(size_t i);

  /// Queue positions (absolute) of buffered events whose decision is
  /// blocked on this instance. When the instance resolves, exactly these
  /// events are re-examined — resolution waves no longer rescan the whole
  /// buffer. May hold stale entries (events decided through another
  /// instance); those are skipped by a status check.
  std::vector<size_t> watchers;

  uint32_t refs = 0;             ///< Counted references (see above).
  InstancePool* pool = nullptr;  ///< The pool that owns the instance.

 private:
  /// collections_[0..live_collections_) are live; entries past them keep
  /// their string capacity for the next collection.
  std::vector<Collection> collections_;
  size_t live_collections_ = 0;
};

/// Owns an evaluator's predicate instances. Acquire() hands out a released
/// instance when there is one, so its matcher frames and its candidate,
/// collection and watcher storage serve the next spawn. Under
/// AddressSanitizer a released instance is poisoned while it waits in the
/// pool, so a handle used after its release faults there.
class InstancePool {
 public:
  InstancePool() = default;
  InstancePool(const InstancePool&) = delete;
  InstancePool& operator=(const InstancePool&) = delete;
  ~InstancePool();

  /// A pending instance of `pred` rooted at `depth`, holding no reference.
  PredInstance* Acquire(const xpath::Predicate* pred,
                        const std::vector<xml::TagId>* tags, int depth);
  /// Takes back an instance whose last reference went: drops what it
  /// holds (which may release further instances) and parks it.
  void Release(PredInstance* inst);

 private:
  std::vector<std::unique_ptr<PredInstance>> owned_;
  std::vector<PredInstance*> free_;
  /// Release() works through this list instead of recursing down nested
  /// predicates; `releasing_now_` marks a drain in progress.
  std::vector<PredInstance*> to_release_;
  bool releasing_now_ = false;
};

inline void Retain(PredInstance* inst) { ++inst->refs; }
inline void Drop(PredInstance* inst) {
  if (--inst->refs == 0) inst->pool->Release(inst);
}

inline CondSet::~CondSet() {
  clear();
  if (!inline_storage()) delete[] heap_;
}

inline void CondSet::clear() {
  PredInstance** d = data();
  for (uint32_t i = 0; i < size_; ++i) Drop(d[i]);
  size_ = 0;
}

inline void CondSet::push_back(PredInstance* inst) {
  if (size_ == capacity_) Reserve(2 * capacity_);
  Retain(inst);
  data()[size_++] = inst;
}

inline CondSet& CondSet::operator=(const CondSet& other) {
  if (this == &other) return *this;
  // Retain first: `other` may share instances with this set.
  for (PredInstance* inst : other) Retain(inst);
  clear();
  if (other.size_ > capacity_) Reserve(other.size_);
  PredInstance** d = data();
  for (uint32_t i = 0; i < other.size_; ++i) d[i] = other.data()[i];
  size_ = other.size_;
  return *this;
}

inline CondSet& CondSet::operator=(CondSet&& other) noexcept {
  if (this == &other) return *this;
  clear();
  if (other.inline_storage()) {
    // Fits whatever storage this set has.
    PredInstance** d = data();
    for (uint32_t i = 0; i < other.size_; ++i) d[i] = other.inline_[i];
  } else {
    if (!inline_storage()) delete[] heap_;
    heap_ = other.heap_;
    capacity_ = other.capacity_;
    other.capacity_ = kInline;
  }
  size_ = other.size_;
  other.size_ = 0;
  return *this;
}

}  // namespace internal

/// Streaming access-control evaluator — the paper's core component
/// (Section 4.2). Consumes the SAX event stream of a document, runs one
/// token automaton per rule, and forwards to `out` exactly the events of
/// the authorized pruned view:
///
///  - A rule applies to every node its expression selects and propagates
///    to the node's subtree.
///  - Conflicts resolve most-specific-target-first (the rule whose target
///    node is deepest on the path wins); at equal specificity denial takes
///    precedence; nodes reached by no rule are denied (closed world).
///  - The authorized view keeps every permitted node, plus the *tags* of
///    denied ancestors of permitted nodes (structure preservation); text
///    of denied elements is never disclosed.
///
/// Events whose authorization hinges on an undecided predicate are
/// buffered (the paper's *pending* parts) and released — in document
/// order — as soon as the predicates resolve, at the latest when the
/// enclosing subtree closes. Output order is always document order.
///
/// The evaluator also acts as the *skip oracle* of the SOE pipeline
/// (Section 4.1): after each open event, SubtreeDecision() reports whether
/// the automata's token analysis proves the subtree inert, letting the
/// driver skip it via the index's size fields before any of its bytes are
/// transferred or decrypted.
class RuleEvaluator : public xml::EventHandler,
                      private internal::RuleEvaluatorContext {
 public:
  /// Pending-part strategy knobs (the SOE memory budget of the paper's
  /// constraint #1: the document must never be materialized in the SOE).
  struct Options {
    /// Bytes the evaluator is willing to hold back for pending parts. A
    /// pending subtree whose *encoded* size field exceeds what remains of
    /// the budget (budget minus bytes already buffered, so small pending
    /// siblings cannot accumulate past it) is answered kDefer by
    /// SubtreeDecision() when deferring is provably safe. The encoded
    /// size is a pre-read proxy for the decoded event payload — text
    /// decodes 1:1, tag names may expand relative to their dictionary
    /// codes — so the enforced peak is budget + one subtree's expansion
    /// slack. The default never defers, preserving pure streaming.
    uint64_t pending_buffer_budget = UINT64_MAX;
  };

  /// `rules` is the rule set already selected for the requesting subject
  /// (see RulesForSubject); `out` receives the authorized view. The
  /// evaluator's tag dictionary starts as a copy of `document_tags` (so a
  /// document's own tag ids can be fed to the id entry points unchanged);
  /// rule step names are then interned once and matched as ids.
  RuleEvaluator(std::vector<AccessRule> rules, xml::EventHandler* out,
                Options options, const xml::TagDictionary& document_tags);
  RuleEvaluator(std::vector<AccessRule> rules, xml::EventHandler* out,
                Options options)
      : RuleEvaluator(std::move(rules), out, options, xml::TagDictionary()) {}
  RuleEvaluator(std::vector<AccessRule> rules, xml::EventHandler* out)
      : RuleEvaluator(std::move(rules), out, Options()) {}
  ~RuleEvaluator() override;

  /// The string entry points intern the tag into tags() and take the id
  /// path below; there is one matcher.
  void OnOpen(const std::string& tag, int depth) override;
  void OnValue(const std::string& value, int depth) override;
  void OnClose(const std::string& tag, int depth) override;

  /// Id entry points: `tag` is an id of tags().
  void OnOpen(xml::TagId tag, int depth);
  void OnClose(xml::TagId tag, int depth);
  /// The one value path. `value` is borrowed for the call: a value decided
  /// on arrival goes to `out`'s OnValueView() as is, and only a value
  /// queued as pending is copied, into the evaluator's text arena. Flush()
  /// later hands `out`'s OnValueView() a view of that copy, which stays
  /// valid past the call: the arena is written only when an event is
  /// queued, so the view lives until the evaluator's next OnOpen(),
  /// OnValueView(), OnClose(), DropInertChild() or Finish().
  void OnValueView(std::string_view value, int depth) override;

  /// The evaluator's tag dictionary: the seed dictionary, then rule step
  /// names, then tags first met through the string entry points.
  const xml::TagDictionary& tags() const { return tags_; }

  /// Skip oracle. Must be called right after OnOpen(tag, depth) and before
  /// the next event; `depth` must be the just-opened element's depth.
  /// Returns kSkip only when eliding the entire subtree (the pipeline then
  /// feeds the matching OnClose directly) provably leaves the authorized
  /// view byte-identical:
  ///
  ///  1. the element's decision is an irrevocable deny (most-specific
  ///     resolved denial or closed world — not merely pending), and
  ///  2. no pending predicate instance could match or collect a value
  ///     inside the subtree, and
  ///  3. no live token of a *positive* rule automaton can reach a full
  ///     match inside the subtree (a deeper target could flip the denial);
  ///     negative-rule tokens are irrelevant below an irrevocable deny.
  SkipDecision SubtreeDecision(const SubtreeFacts& facts, int depth);

  /// Look-ahead oracle for the fetch planner, callable right after
  /// SubtreeDecision() answered kDescend: true when the just-opened
  /// element's subtree will provably be streamed *in full* — the element's
  /// decision is an irrevocable permit, no pending predicate can gather
  /// evidence inside, and no rule automaton of either sign can reach a
  /// target inside (so no descendant can be re-decided, skipped or
  /// deferred). The pipeline then hints the subtree's byte range to the
  /// fetcher as wanted, letting it batch the whole range in few round
  /// trips, and stops consulting the oracle below the element. When the
  /// evaluator is also Idle(), the pipeline streams the subtree verbatim
  /// past the evaluator, which sees only the element's open and close (the
  /// contract of a skip). The answer is therefore load-bearing: a false
  /// negative only costs smaller batches and a slower serve, but a false
  /// *positive* discloses content a deeper denial covers, or omits or
  /// reorders content a pending predicate governs.
  bool WholeSubtreeAuthorized(const SubtreeFacts& facts, int depth);

  /// Pre-open skip oracle, asked *before* OnOpen(tag, depth) for a child
  /// of the innermost open element: true when that OnOpen() would add no
  /// rule hit, spawn no predicate and start no value collection, and
  /// SubtreeDecision() would then answer kSkip. It holds only when
  ///
  ///  1. the parent's memoized decision is an irrevocable deny (the memo is
  ///     read, never recomputed: a parent still pending in the memo answers
  ///     false, and the caller takes the full path);
  ///  2. no token of any rule matcher or pending predicate instance can
  ///     advance on `tag`, so the child has no hit and inherits the deny;
  ///  3. no pending predicate instance is collecting a value (text inside
  ///     the child would feed it, and the bitmap cannot see text);
  ///  4. no descendant-axis token of a positive rule or a pending instance
  ///     can complete inside `facts` (the child's subtree); and
  ///  5. no predicate settlement is waiting to propagate.
  ///
  /// On true the caller must call DropInertChild(tag, depth) instead of
  /// OnOpen/SubtreeDecision/OnClose and jump the element whole.
  bool InertChild(xml::TagId tag, int depth, const SubtreeFacts& facts) const;

  /// Records an element InertChild() answered true for, as if it had been
  /// opened, answered kSkip and closed: the same events_in, skip_checks
  /// and skips_advised, and its open and close enter the queue already
  /// dropped before Flush() runs, so buffered bytes, peaks and every later
  /// budget decision match the full path byte for byte. No matcher, node
  /// decision or predicate is touched.
  void DropInertChild(xml::TagId tag, int depth);

  /// True when nothing the evaluator was fed is still undecided: every
  /// event went out to `out` or was pruned, and the pending queue is
  /// empty. Nothing can then be emitted ahead of the next event, so a
  /// driver may forward a WholeSubtreeAuthorized() subtree verbatim in
  /// document order.
  bool Idle() const { return queue_size_ == 0; }

  /// Records that the driver took a kDefer answer: the just-opened element
  /// (the one SubtreeDecision was consulted for) becomes a *deferred
  /// subtree* — its open/close events stay queued as usual, but its content
  /// was skipped unseen. Returns the deferral id. When the element's
  /// decision later resolves to permit, the deferral listener fires —
  /// during output, right after the element's open event — so the driver
  /// can splice the re-read subtree back at its original document
  /// position; a denial fires nothing and costs zero re-reads. Must be
  /// called right after SubtreeDecision() returned kDefer, before the next
  /// event.
  size_t RegisterDeferral();

  /// Called in document order, between a granted deferred element's open
  /// and close events as they are forwarded to `out`.
  using DeferralListener = std::function<void(size_t deferral_id)>;
  void set_deferral_listener(DeferralListener listener) {
    deferral_listener_ = std::move(listener);
  }

  /// Must be called after the last event: verifies every buffered event
  /// was resolved and flushed (it is, for any well-nested stream).
  Status Finish();

  struct Stats {
    uint64_t events_in = 0;
    uint64_t events_emitted = 0;
    uint64_t events_pruned = 0;
    uint64_t rule_hits = 0;           ///< Full rule matches (targets found).
    uint64_t predicates_spawned = 0;  ///< Pending predicate instances.
    size_t peak_buffered = 0;         ///< Max events held back at once.
    uint64_t peak_buffered_bytes = 0;  ///< Max payload bytes held back.
    uint64_t skip_checks = 0;         ///< SubtreeDecision() queries.
    uint64_t skips_advised = 0;       ///< ... that answered kSkip.
    uint64_t defers_advised = 0;      ///< ... that answered kDefer.
    uint64_t full_grants_advised = 0;  ///< WholeSubtreeAuthorized() == true.
    uint64_t subtrees_deferred = 0;   ///< RegisterDeferral() calls.
    uint64_t deferrals_granted = 0;   ///< Deferred opens that were emitted.
    uint64_t deferrals_denied = 0;    ///< Deferred opens that were dropped.
    /// Blocked-event → pending-predicate watcher registrations. Identical
    /// token spawns at the same (rule, position) share one instance and
    /// each blocked event registers with an instance at most once.
    uint64_t watcher_subscriptions = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct NodeRec;
  struct OutEvent;
  enum class EventStatus { kUndecided, kEmit, kDrop };
  /// Pending instances a decision hinged on.
  using Blockers = std::vector<internal::PredInstance*>;

  // internal::RuleEvaluatorContext
  internal::PredInstance* Spawn(const xpath::Predicate* pred,
                                int depth) override;

  /// Interns every step name of `steps` (and of its nested predicate
  /// paths) into step_tags_.
  void CompileSteps(const std::vector<xpath::Step>& steps);
  /// Decides `node`, memoizing an irrevocable result; when the result
  /// hinges on pending predicates, the instances encountered are appended
  /// to `blockers` (if non-null) so the caller can subscribe the blocked
  /// event to exactly those instances.
  Decision Decide(NodeRec& node, Blockers* blockers = nullptr);
  void SettleCandidates();          ///< Predicate-candidate fixpoint.
  void SettleInstance(internal::PredInstance* inst,
                      internal::PredInstance::State state);
  bool ResolveEvent(size_t qpos);   ///< Decides one buffered event if possible.
  /// The direct path for settled events: decides the event of `kind`
  /// arriving for `node` (a value: its parent element) with no queue round
  /// when that cannot reorder the output. kEmit forwards it now, kDrop
  /// prunes it now, kUndecided sends it through the queue.
  EventStatus DecideOnArrival(xml::EventKind kind, NodeRec* node);
  void Resolve();      ///< Examines the tail event, then drains the wave.
  void DrainWave();    ///< Re-examines watchers of newly settled instances.
  /// Walks up from `node` while closed subtrees become fully decided,
  /// pruning denied ones and releasing them from their parent's count.
  void Settle(NodeRec* node);
  void Flush();        ///< Emits/drops the decided queue prefix.
  void ForceEmit(NodeRec* node);
  void MarkStatus(OutEvent& e, EventStatus status);
  OutEvent& EventAt(size_t qpos);
  /// Appends an undecided event at the tail of the queue.
  OutEvent& PushEvent(xml::EventKind kind, int depth, NodeRec* node);
  size_t PayloadBytes(const OutEvent& e) const;
  /// Copies a pending value into the arena; returns its arena position.
  size_t QueueText(std::string_view value);
  NodeRec* AcquireNode();

  std::vector<AccessRule> rules_;
  xml::EventHandler* out_;
  Options options_;
  DeferralListener deferral_listener_;

  xml::TagDictionary tags_;
  /// Compiled node tests of every rule and predicate step sequence, keyed
  /// by the sequence (stable: rules_ never changes after construction).
  std::unordered_map<const std::vector<xpath::Step>*, std::vector<xml::TagId>>
      step_tags_;

  /// Declared before every holder of an instance reference, so it is
  /// destroyed after them.
  internal::InstancePool pool_;
  std::vector<std::unique_ptr<internal::PathMatcher>> matchers_;  // per rule
  /// Instances still pending or settled since the last close; each entry
  /// holds a reference (dropped when OnClose() prunes it).
  std::vector<internal::PredInstance*> instances_;

  // Per-open-event memo so several tokens crossing the same predicated
  // step share one instance. clear()ed per event — capacity persists. The
  // instances are alive through instances_.
  std::vector<std::pair<const xpath::Predicate*, internal::PredInstance*>>
      spawn_memo_;

  /// Reused scratch: full-match collector handed to every matcher on each
  /// open event, the target-depth list Decide() sorts, and the blocker
  /// list ResolveEvent() gathers.
  std::vector<internal::CondSet> fulls_scratch_;
  std::vector<int> depths_scratch_;
  Blockers blockers_scratch_;
  /// DrainWave() swaps each settled instance's watcher list with this one,
  /// so both keep their storage.
  std::vector<size_t> watchers_scratch_;

  /// Node-record pool: records are owned here and recycled through
  /// free_nodes_ once their close event flushes — by then every event that
  /// referred to the record (its own, its descendants') has flushed too.
  std::vector<std::unique_ptr<NodeRec>> node_pool_;
  std::vector<NodeRec*> free_nodes_;
  std::vector<NodeRec*> element_stack_;
  /// The pending queue: absolute positions [queue_base_, queue_base_ +
  /// queue_size_). Position p is slot p % kQueueBlock of block p /
  /// kQueueBlock, which lives in blocks_[block & (blocks_.size() - 1)]: a
  /// ring of blocks whose size is a power of two. A flushed block stays in
  /// its slot and is reused when the ring wraps, so a steady stream
  /// allocates nothing, and a long buffer grows by doubling the ring of
  /// block pointers without moving any event.
  static constexpr size_t kQueueBlock = 128;
  std::vector<std::unique_ptr<OutEvent[]>> blocks_;
  size_t queue_base_ = 0;  ///< Absolute position of the oldest event.
  size_t queue_size_ = 0;
  uint64_t buffered_bytes_ = 0;  ///< Payload bytes currently queued.
  /// Texts of queued values, appended in queue order. Arena position p is
  /// text_arena_[p - arena_base_]; positions below arena_flushed_ belong
  /// to values already flushed. QueueText() empties the arena when the
  /// queue is empty and drops the flushed prefix once it outweighs the
  /// rest, so the arena stays within twice the buffered text (the ledger)
  /// plus the value being queued. Never written by Flush(): the views it
  /// hands out stay valid until the next event is queued.
  std::string text_arena_;
  size_t arena_base_ = 0;
  size_t arena_flushed_ = 0;
  /// Instances that left kPending since the last DrainWave(): their
  /// watcher lists are the only buffered events a resolution wave touches.
  /// Each stays alive in instances_ until the wave drains.
  std::vector<internal::PredInstance*> wave_;
  /// An instance settled or a candidate was added since the last
  /// SettleCandidates() fixpoint.
  bool candidates_dirty_ = false;

  Stats stats_;
};

}  // namespace csxa::access

#endif  // CSXA_ACCESS_RULE_EVALUATOR_H_

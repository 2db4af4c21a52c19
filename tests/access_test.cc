// Semantics tests for the streaming access-control evaluator: propagation,
// most-specific-takes-precedence, denial-takes-precedence, closed-world
// default, structure preservation, pending predicates, and the
// containment-based rule-set minimization.

#include <algorithm>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "testing.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace {

using namespace csxa;  // NOLINT
using csxa::access::AccessRule;

/// Runs `rules_text` (for `subject`) over `xml` and returns the serialized
/// authorized view.
std::string View(const std::string& xml, const std::string& rules_text,
                 const std::string& subject = "u") {
  auto rules = access::ParseRuleList(rules_text);
  CHECK_OK(rules.status());
  if (!rules.ok()) return "<error>";
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(
      access::RulesForSubject(rules.value(), subject), &ser);
  CHECK_OK(xml::SaxParser::Parse(xml, &eval));
  CHECK_OK(eval.Finish());
  return ser.output();
}

std::vector<AccessRule> Rules(const std::string& text) {
  auto r = access::ParseRuleList(text);
  CHECK_OK(r.status());
  return r.ok() ? r.take() : std::vector<AccessRule>{};
}

TEST(ClosedWorldDefault) {
  // No rule reaches the document: nothing is disclosed.
  CHECK_EQ(View("<r><a>x</a></r>", ""), "");
  CHECK_EQ(View("<r><a>x</a></r>", "+ other: /r"), "");
}

TEST(GrantPropagatesToSubtree) {
  CHECK_EQ(View("<r><a>x</a><b><c>y</c></b></r>", "+ /r"),
           "<r><a>x</a><b><c>y</c></b></r>");
}

TEST(SubjectSelection) {
  CHECK_EQ(View("<r><a>x</a></r>", "+ u: /r"), "<r><a>x</a></r>");
  CHECK_EQ(View("<r><a>x</a></r>", "+ v: /r\n+ u: /r/a"), "<r><a>x</a></r>");
}

TEST(NegativeOverridesAtDeeperTarget) {
  // - /r/secret is more specific (deeper target) than + /r.
  CHECK_EQ(View("<r><pub>1</pub><secret>2</secret></r>",
                "+ /r\n- /r/secret"),
           "<r><pub>1</pub></r>");
}

TEST(PositiveRegrantBelowNegative) {
  // The paper's cascade: grant the folder, deny Admin, re-grant the name.
  CHECK_EQ(View("<r><adm><name>jane</name><ssn>123</ssn></adm>"
                "<data>d</data></r>",
                "+ /r\n- /r/adm\n+ /r/adm/name"),
           "<r><adm><name>jane</name></adm><data>d</data></r>");
}

TEST(DenialTakesPrecedenceAtEqualSpecificity) {
  CHECK_EQ(View("<r><x>v</x></r>", "+ /r/x\n- /r/x"), "");
  // Two paths targeting the same node at the same depth.
  CHECK_EQ(View("<r><x>v</x></r>", "+ /r/x\n- //x"), "");
}

TEST(StructurePreservationHidesAncestorText) {
  // The denied ancestor's tag is visible (it leads to a permitted node)
  // but its own text is not.
  CHECK_EQ(View("<r>top<a>hidden<ok>yes</ok></a></r>", "+ //ok"),
           "<r><a><ok>yes</ok></a></r>");
}

TEST(DeniedBranchFullyPruned) {
  // A denied subtree with no permitted descendant disappears entirely,
  // including its tags.
  CHECK_EQ(View("<r><keep>k</keep><drop><x>1</x></drop></r>",
                "+ /r\n- /r/drop"),
           "<r><keep>k</keep></r>");
}

TEST(WildcardStep) {
  CHECK_EQ(View("<r><a><pub>1</pub></a><b><pub>2</pub><prv>3</prv></b></r>",
                "+ /r/*/pub"),
           "<r><a><pub>1</pub></a><b><pub>2</pub></b></r>");
}

TEST(DescendantAxis) {
  CHECK_EQ(View("<r><name>n1</name><a><b><name>n2</name></b></a></r>",
                "+ //name"),
           "<r><name>n1</name><a><b><name>n2</name></b></a></r>");
  CHECK_EQ(View("<r><a><a><x>deep</x></a></a></r>", "+ /r//a/x"),
           "<r><a><a><x>deep</x></a></a></r>");
}

TEST(ExistencePredicate) {
  const char* rules = "+ /r/pat[flag]";
  CHECK_EQ(View("<r><pat><flag/><d>1</d></pat></r>", rules),
           "<r><pat><flag></flag><d>1</d></pat></r>");
  CHECK_EQ(View("<r><pat><d>1</d></pat></r>", rules), "");
}

TEST(ComparisonPredicateValueBefore) {
  const char* rules = "- //an[type = G3]/cmt\n+ /r";
  CHECK_EQ(View("<r><an><type>G3</type><cmt>x</cmt></an></r>", rules),
           "<r><an><type>G3</type></an></r>");
  CHECK_EQ(View("<r><an><type>G2</type><cmt>x</cmt></an></r>", rules),
           "<r><an><type>G2</type><cmt>x</cmt></an></r>");
}

TEST(ComparisonPredicateValueAfterStaysPending) {
  // The predicate decides only after <cmt> has been seen: the evaluator
  // must buffer and still emit in document order.
  const char* rules = "- //an[type = G3]/cmt\n+ /r";
  CHECK_EQ(View("<r><an><cmt>x</cmt><type>G3</type></an></r>", rules),
           "<r><an><type>G3</type></an></r>");
  CHECK_EQ(View("<r><an><cmt>x</cmt><type>G2</type></an></r>", rules),
           "<r><an><cmt>x</cmt><type>G2</type></an></r>");
}

TEST(NumericComparisonPredicate) {
  const char* rules = "+ //an[chol > 250]";
  CHECK_EQ(View("<r><an><chol>260</chol></an><an><chol>180</chol></an></r>",
                rules),
           "<r><an><chol>260</chol></an></r>");
}

TEST(PredicateWithPathSteps) {
  const char* rules = "+ /r/pat[ins/plan = gold]";
  CHECK_EQ(View("<r><pat><ins><plan>gold</plan></ins><d>1</d></pat></r>",
                rules),
           "<r><pat><ins><plan>gold</plan></ins><d>1</d></pat></r>");
  CHECK_EQ(View("<r><pat><ins><plan>base</plan></ins><d>1</d></pat></r>",
                rules),
           "");
}

TEST(NestedPredicate) {
  const char* rules = "+ /r/pat[ins[gold]]";
  CHECK_EQ(View("<r><pat><ins><gold/></ins><d>1</d></pat></r>", rules),
           "<r><pat><ins><gold></gold></ins><d>1</d></pat></r>");
  CHECK_EQ(View("<r><pat><ins><iron/></ins><d>1</d></pat></r>", rules), "");
}

TEST(DescendantPredicate) {
  const char* rules = "+ /r/pat[//gold]";
  CHECK_EQ(View("<r><pat><a><b><gold/></b></a></pat></r>", rules),
           "<r><pat><a><b><gold></gold></b></a></pat></r>");
  CHECK_EQ(View("<r><pat><a><b><lead/></b></a></pat></r>", rules), "");
}

TEST(PendingNegativeBlocksEarlyEmission) {
  // + /r grants <d> but a *pending* deeper denial on it must hold the
  // event back until the predicate resolves false, then emit.
  const char* rules = "+ /r\n- /r/pat[bad]/d";
  CHECK_EQ(View("<r><pat><d>v</d><x/></pat></r>", rules),
           "<r><pat><d>v</d><x></x></pat></r>");
  CHECK_EQ(View("<r><pat><d>v</d><bad/></pat></r>", rules),
           "<r><pat><bad></bad></pat></r>");
}

TEST(MultipleRulesAndDocumentOrder) {
  const char* rules =
      "+ /lib//book[price < 20]\n"
      "- /lib/shelf[restricted]//book\n";
  const char* doc =
      "<lib>"
      "<shelf><book><price>10</price></book>"
      "<book><price>30</price></book></shelf>"
      "<shelf><restricted/><book><price>5</price></book></shelf>"
      "</lib>";
  CHECK_EQ(View(doc, rules),
           "<lib><shelf><book><price>10</price></book></shelf></lib>");
}

TEST(EvaluatorStats) {
  auto rules = access::ParseRuleList("+ /r\n- /r/b");
  CHECK_OK(rules.status());
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules.take(), &ser);
  CHECK_OK(xml::SaxParser::Parse("<r><a>1</a><b>2</b></r>", &eval));
  CHECK_OK(eval.Finish());
  CHECK_EQ(eval.stats().events_in, uint64_t{8});
  CHECK_EQ(eval.stats().events_emitted, uint64_t{5});   // r, a, "1"
  CHECK_EQ(eval.stats().events_pruned, uint64_t{3});    // b, "2"
  CHECK_EQ(eval.stats().rule_hits, uint64_t{2});
}

TEST(WatcherRegistrationDeduped) {
  // //a//b[c] over <r><a><a><b>…: two descendant tokens cross the same
  // predicated step during b's open event. The spawn memo makes them share
  // one predicate instance, so b carries two hits blocked on the *same*
  // instance — each blocked event must register one watcher with it, not
  // one per hit (and a re-examination must not re-register).
  auto rules = access::ParseRuleList("+ /r\n- //a//b[c]\n");
  CHECK_OK(rules.status());
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules.take(), &ser);
  CHECK_OK(xml::SaxParser::Parse("<r><a><a><b>secret</b></a></a></r>",
                                 &eval));
  CHECK_OK(eval.Finish());
  // One shared instance, despite two tokens crossing the step.
  CHECK_EQ(eval.stats().predicates_spawned, uint64_t{1});
  // Exactly two blocked events (b's open, its text) × one instance.
  CHECK_EQ(eval.stats().watcher_subscriptions, uint64_t{2});
  // [c] never matched: the pending denial dissolves and b is disclosed.
  CHECK_EQ(ser.output(), "<r><a><a><b>secret</b></a></a></r>");
}

TEST(ChildrenOfPendingParentInheritItsDecision) {
  // c and d carry no hits of their own: their decision is p's, and p
  // hangs on [ok], which arrives only after them. They must stay pending
  // (not memoized as anything) until p resolves, then take its result.
  for (bool grant : {true, false}) {
    xml::SerializingHandler ser;
    access::RuleEvaluator eval(Rules("+ /r/p[ok]\n"), &ser);
    eval.OnOpen("r", 1);
    eval.OnOpen("p", 2);
    eval.OnOpen("c", 3);
    eval.OnOpen("d", 4);
    eval.OnValue("text", 5);
    eval.OnClose("d", 4);
    eval.OnClose("c", 3);
    CHECK_EQ(eval.stats().events_emitted, uint64_t{0});
    CHECK_EQ(eval.stats().events_pruned, uint64_t{0});
    if (grant) {
      eval.OnOpen("ok", 3);
      // p resolved to permit: everything buffered below it is released.
      CHECK_EQ(ser.output(), "<r><p><c><d>text</d></c><ok>");
      eval.OnClose("ok", 3);
    }
    eval.OnClose("p", 2);
    eval.OnClose("r", 1);
    CHECK_OK(eval.Finish());
    CHECK_EQ(ser.output(),
             grant ? "<r><p><c><d>text</d></c><ok></ok></p></r>" : "");
  }
}

// ---------------------------------------------------------------------------
// Pre-open inert oracle: InertChild() is asked before a child's open, with
// the child's own subtree facts.
// ---------------------------------------------------------------------------

/// The names these tests open, as a document dictionary: every child has
/// an id before its first open, as it does for a navigator's items.
xml::TagDictionary DocTags() {
  xml::TagDictionary tags;
  for (const char* t : {"a", "b", "c", "n", "q", "r", "x", "y", "z", "Flag",
                        "ok", "keep", "probe", "noise"}) {
    tags.Intern(t);
  }
  return tags;
}

xml::TagId Id(const access::RuleEvaluator& eval, const char* name) {
  xml::TagId id = 0;
  CHECK(eval.tags().Lookup(name, &id));
  return id;
}

/// Facts for a child whose subtree can hold exactly `tags`.
access::SubtreeFacts Below(const access::RuleEvaluator& eval,
                           std::initializer_list<const char*> tags) {
  access::SubtreeFacts facts;
  facts.tags_known = true;
  facts.no_elements_below = tags.size() == 0;
  facts.present.assign(eval.tags().size(), 0);
  for (const char* t : tags) facts.present[Id(eval, t)] = facts.generation;
  return facts;
}

TEST(InertChildOnlyBelowAnIrrevocableDeny) {
  const access::SubtreeFacts unknown;  // TCS: no bitmap.
  {
    // `a` is denied by the closed world; only <b> can be granted below it
    // and only <n> can be denied.
    xml::SerializingHandler ser;
    access::RuleEvaluator eval(Rules("+ /a/b\n- /a/n\n"), &ser, {},
                               DocTags());
    eval.OnOpen("a", 1);
    // An unmatched child of a denied parent, even without a bitmap.
    CHECK(eval.InertChild(Id(eval, "z"), 2, unknown));
    CHECK(eval.InertChild(Id(eval, "z"), 2, Below(eval, {"b", "n"})));
    // A tag that advances a positive or a negative rule's token.
    CHECK(!eval.InertChild(Id(eval, "b"), 2, Below(eval, {})));
    CHECK(!eval.InertChild(Id(eval, "n"), 2, Below(eval, {})));
    // Not a child of the innermost open element.
    CHECK(!eval.InertChild(Id(eval, "z"), 3, Below(eval, {})));
    eval.OnClose("a", 1);
    CHECK_OK(eval.Finish());
  }
  {
    // A permitted parent streams its content.
    xml::SerializingHandler ser;
    access::RuleEvaluator eval(Rules("+ /a\n"), &ser, {}, DocTags());
    eval.OnOpen("a", 1);
    CHECK(!eval.InertChild(Id(eval, "z"), 2, Below(eval, {})));
    eval.OnClose("a", 1);
    CHECK_OK(eval.Finish());
  }
  {
    // A pending parent: [Flag] is undecided, so b may yet be permitted.
    xml::SerializingHandler ser;
    access::RuleEvaluator eval(Rules("+ /a\n- /a/b[Flag]\n"), &ser, {},
                               DocTags());
    eval.OnOpen("a", 1);
    eval.OnOpen("b", 2);
    CHECK(!eval.InertChild(Id(eval, "z"), 3, Below(eval, {})));
    eval.OnClose("b", 2);
    eval.OnClose("a", 1);
    CHECK_OK(eval.Finish());
    CHECK_EQ(ser.output(), "<a><b></b></a>");
  }
}

TEST(InertChildNeverDropsCollectedText) {
  // /a[b = x]/c over <a><b><z>x</z></b><q/><c/></a>: while b's string
  // value is being collected for [b = x], the text inside <z> feeds it,
  // and no bitmap can see text.
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(Rules("+ /a[b = x]/c\n"), &ser, {}, DocTags());
  eval.OnOpen("a", 1);
  eval.OnOpen("b", 2);
  CHECK(!eval.InertChild(Id(eval, "z"), 3, Below(eval, {})));
  eval.OnOpen("z", 3);
  eval.OnValue("x", 4);
  eval.OnClose("z", 3);
  eval.OnClose("b", 2);
  // The comparison is settled: q advances nothing and collects nothing.
  CHECK(eval.InertChild(Id(eval, "q"), 2, Below(eval, {})));
  eval.DropInertChild(Id(eval, "q"), 2);
  eval.OnOpen("c", 2);
  eval.OnClose("c", 2);
  eval.OnClose("a", 1);
  CHECK_OK(eval.Finish());
  CHECK_EQ(ser.output(), "<a><c></c></a>");
}

TEST(InertChildHonoursDescendantTokens) {
  {
    // + //x keeps a token alive into every child: only the child's bitmap
    // can rule an x out below it.
    xml::SerializingHandler ser;
    access::RuleEvaluator eval(Rules("+ //x\n"), &ser, {}, DocTags());
    eval.OnOpen("r", 1);
    CHECK(!eval.InertChild(Id(eval, "q"), 2, Below(eval, {"x", "y"})));
    CHECK(eval.InertChild(Id(eval, "q"), 2, Below(eval, {"y"})));
    CHECK(eval.InertChild(Id(eval, "q"), 2, Below(eval, {})));
    CHECK(!eval.InertChild(Id(eval, "q"), 2, access::SubtreeFacts{}));
    CHECK(!eval.InertChild(Id(eval, "x"), 2, Below(eval, {})));
    eval.OnClose("r", 1);
    CHECK_OK(eval.Finish());
  }
  {
    // A pending instance's descendant token counts too: a probe below the
    // child would decide [//probe], which governs the buffered <keep>.
    xml::SerializingHandler ser;
    access::RuleEvaluator eval(Rules("+ /r/keep\n- /r[//probe]/keep\n"),
                               &ser, {}, DocTags());
    eval.OnOpen("r", 1);
    eval.OnOpen("keep", 2);
    eval.OnClose("keep", 2);
    CHECK(!eval.InertChild(Id(eval, "q"), 2, Below(eval, {"probe"})));
    CHECK(eval.InertChild(Id(eval, "q"), 2, Below(eval, {"noise"})));
    eval.OnClose("r", 1);
    CHECK_OK(eval.Finish());
    CHECK_EQ(ser.output(), "<r><keep></keep></r>");
  }
}

/// Every counter of `a` equals `b`'s.
void CheckSameStats(const access::RuleEvaluator::Stats& a,
                    const access::RuleEvaluator::Stats& b) {
  CHECK_EQ(a.events_in, b.events_in);
  CHECK_EQ(a.events_emitted, b.events_emitted);
  CHECK_EQ(a.events_pruned, b.events_pruned);
  CHECK_EQ(a.rule_hits, b.rule_hits);
  CHECK_EQ(a.predicates_spawned, b.predicates_spawned);
  CHECK_EQ(a.peak_buffered, b.peak_buffered);
  CHECK_EQ(a.peak_buffered_bytes, b.peak_buffered_bytes);
  CHECK_EQ(a.skip_checks, b.skip_checks);
  CHECK_EQ(a.skips_advised, b.skips_advised);
  CHECK_EQ(a.defers_advised, b.defers_advised);
  CHECK_EQ(a.full_grants_advised, b.full_grants_advised);
  CHECK_EQ(a.subtrees_deferred, b.subtrees_deferred);
  CHECK_EQ(a.deferrals_granted, b.deferrals_granted);
  CHECK_EQ(a.deferrals_denied, b.deferrals_denied);
  CHECK_EQ(a.watcher_subscriptions, b.watcher_subscriptions);
}

TEST(DroppedInertChildCountsLikeTheFullPath) {
  // + /r[ok]/p: p's open waits in the queue for [ok], so the inert <z>
  // dropped behind it must wait there too and count in the peaks.
  for (bool grant : {true, false}) {
    xml::SerializingHandler full_out, drop_out;
    access::RuleEvaluator full(Rules("+ /r[ok]/p\n"), &full_out, {},
                               DocTags());
    access::RuleEvaluator drop(Rules("+ /r[ok]/p\n"), &drop_out, {},
                               DocTags());
    for (access::RuleEvaluator* eval : {&full, &drop}) {
      eval->OnOpen("r", 1);
      eval->OnOpen("p", 2);
      eval->OnValue("t", 3);
      eval->OnClose("p", 2);
    }
    const xml::TagId z = Id(drop, "z");
    CHECK(drop.InertChild(z, 2, Below(drop, {"q"})));
    drop.DropInertChild(z, 2);
    full.OnOpen(z, 2);
    CHECK(full.SubtreeDecision(Below(full, {"q"}), 2) ==
          access::SkipDecision::kSkip);
    full.OnClose(z, 2);
    CheckSameStats(drop.stats(), full.stats());
    // r, p, "t", /p, then the dropped z and /z.
    CHECK_EQ(drop.stats().peak_buffered, size_t{6});
    for (access::RuleEvaluator* eval : {&full, &drop}) {
      if (grant) {
        eval->OnOpen("ok", 2);
        eval->OnClose("ok", 2);
      }
      eval->OnClose("r", 1);
      CHECK_OK(eval->Finish());
    }
    CheckSameStats(drop.stats(), full.stats());
    CHECK_EQ(drop_out.output(), full_out.output());
    CHECK_EQ(drop_out.output(), grant ? "<r><p>t</p></r>" : "");
  }
}

/// CPU seconds to feed a chain of `depth` nested <a> elements, with one
/// text node at the bottom, through a fresh evaluator; checks the view.
double TimeChain(const std::string& rules_text, int depth) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(Rules(rules_text), &ser);
  const double start = testing::ThreadCpuSeconds();
  for (int d = 1; d <= depth; ++d) eval.OnOpen("a", d);
  eval.OnValue("x", depth + 1);
  for (int d = depth; d >= 1; --d) eval.OnClose("a", d);
  CHECK_OK(eval.Finish());
  const double elapsed = testing::ThreadCpuSeconds() - start;
  std::string expected;
  if (!rules_text.empty()) {
    expected.reserve(static_cast<size_t>(depth) * 7 + 1);
    for (int d = 0; d < depth; ++d) expected += "<a>";
    expected += "x";
    for (int d = 0; d < depth; ++d) expected += "</a>";
  }
  CHECK(ser.output() == expected);
  return elapsed;
}

TEST(DeepChainsCostLinearTime) {
  // Every element is decided on arrival — denied by the closed world, or
  // granted by /a — so depth must not add per-event work: no ancestor
  // walks to keep undecided counts, no re-deciding inherited levels.
  // time(4n) / time(n) over the min of 3 runs each must stay within 5. A
  // 4x deeper chain has a 4x larger working set, which a busy machine's
  // shared caches can punish beyond that; so an attempt over the bound is
  // re-measured, up to 3 attempts. Quadratic work (a ratio near 16) fails
  // every attempt.
  for (const char* rules : {"", "+ /a\n"}) {
    double ratio = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
      double small = 1e9, large = 1e9;
      for (int run = 0; run < 3; ++run) {
        small = std::min(small, TimeChain(rules, 16 << 10));
        large = std::min(large, TimeChain(rules, 64 << 10));
      }
      ratio = large / small;
      if (ratio <= 5) break;
    }
    if (ratio > 5) {
      testing::Fail(__FILE__, __LINE__,
                    std::string("rules '") + rules + "': 4x depth took " +
                        std::to_string(ratio) + "x the time");
    }
  }
}

TEST(RuleParsing) {
  auto r = access::ParseRule("+ doctor: /Folder//MedActs");
  CHECK_OK(r.status());
  if (r.ok()) {
    CHECK(r.value().sign == access::Sign::kPermit);
    CHECK_EQ(r.value().subject, "doctor");
    CHECK_EQ(r.value().path.ToString(), "/Folder//MedActs");
    CHECK_EQ(r.value().ToString(), "+ doctor: /Folder//MedActs");
  }
  auto bare = access::ParseRule("- /a/b");
  CHECK_OK(bare.status());
  if (bare.ok()) {
    CHECK(bare.value().sign == access::Sign::kDeny);
    CHECK_EQ(bare.value().subject, "");
  }
  CHECK(!access::ParseRule("/a/b").ok());
  CHECK(!access::ParseRule("+ ").ok());
}

TEST(RedundantRuleElimination) {
  // Same-sign rule with a contained node set is dropped.
  auto out = access::EliminateRedundantRules(Rules("+ //b\n+ /a/b"));
  CHECK_EQ(out.size(), size_t{1});
  if (!out.empty()) CHECK_EQ(out[0].path.ToString(), "//b");
  out = access::EliminateRedundantRules(Rules("+ /a//b\n+ /a/c/b"));
  CHECK_EQ(out.size(), size_t{1});

  // /a does NOT make /a/b redundant: they target different nodes, and the
  // deeper rule has higher specificity (e.g. against "- /a" it decides).
  out = access::EliminateRedundantRules(Rules("+ /a\n+ /a/b"));
  CHECK_EQ(out.size(), size_t{2});

  // Opposite sign is never dropped.
  out = access::EliminateRedundantRules(Rules("+ //b\n- /a/b"));
  CHECK_EQ(out.size(), size_t{2});

  // Different subject is never dropped.
  out = access::EliminateRedundantRules(Rules("+ u: //b\n+ v: /a/b"));
  CHECK_EQ(out.size(), size_t{2});

  // Equivalent rules keep the first.
  out = access::EliminateRedundantRules(Rules("+ /a//b\n+ /a//b"));
  CHECK_EQ(out.size(), size_t{1});

  // Elimination must not change any decision.
  const char* doc = "<a><b><c>1</c></b><d>2</d></a>";
  const char* rules = "+ /a\n+ /a/b\n- /a/b/c\n+ //c\n- /a/d\n- /a/d";
  auto full = Rules(rules);
  auto reduced = access::EliminateRedundantRules(full);
  CHECK(reduced.size() < full.size());
  xml::SerializingHandler s1, s2;
  access::RuleEvaluator e1(full, &s1);
  access::RuleEvaluator e2(reduced, &s2);
  CHECK_OK(xml::SaxParser::Parse(doc, &e1));
  CHECK_OK(xml::SaxParser::Parse(doc, &e2));
  CHECK_OK(e1.Finish());
  CHECK_OK(e2.Finish());
  CHECK_EQ(s1.output(), s2.output());
}

}  // namespace

// Skip-navigation tests: the evaluator-driven skip path must serialize a
// byte-identical authorized view to full streaming for every encoding
// variant and rule set, the Skip-index variants (TCSB/TCSBR) must
// strictly reduce transferred/decrypted bytes on bitmap-pruning
// scenarios, and the skip oracle itself must distinguish "denied forever"
// from "denied but a deeper target rule might grant".

#include <string>
#include <unordered_set>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "bench/corpus.h"
#include "server/document_service.h"
#include "testing.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace {

using namespace csxa;  // NOLINT

crypto::TripleDes::Key TestKey() {
  crypto::TripleDes::Key key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0x5a ^ (i * 13));
  }
  return key;
}

/// `bulk` scales the denied administrative subtrees: the strict
/// wire-reduction tests use a bulk where pruned regions span whole chunks
/// (the paper's setting — its skipped subtrees dwarf the chunk size);
/// the default keeps the semantic matrix fast.
std::string TestDocument(int bulk = 1) {
  std::string xml = "<Hospital>";
  for (int f = 0; f < 3; ++f) {
    xml += "<Folder><Admin><Name>Patient-" + std::to_string(f) + "</Name>";
    xml += "<SSN>123-45-" + std::to_string(f) + "</SSN>";
    xml += "<Insurance>";
    for (int b = 0; b < bulk; ++b) {
      xml += "provider notes provider notes provider notes provider notes ";
    }
    xml += "for folder " + std::to_string(f) + "</Insurance>";
    xml += "<Billing>";
    for (int b = 0; b < bulk; ++b) {
      xml += "<Item>invoice-a</Item><Item>invoice-b</Item>"
             "<Item>invoice-c</Item>";
    }
    xml += "</Billing></Admin>";
    xml += "<MedActs>";
    for (int c = 0; c < 2; ++c) {
      xml += "<Consult><Date>2004-01-1" + std::to_string(c) + "</Date>";
      if (f == 1 && c == 0) xml += "<Protocol>double-blind</Protocol>";
      xml += "<Diagnostic>seasonal flu, bed rest advised</Diagnostic>";
      xml += "<Prescription>rx-" + std::to_string(f * 10 + c) +
             "</Prescription></Consult>";
    }
    // Type after Comments in odd folders: pending parts under skipping.
    std::string type = std::string("<Type>") + (f % 2 ? "G3" : "G2") +
                       "</Type>";
    std::string comments = "<Comments>cholesterol is borderline high, "
                           "recheck in six months</Comments>";
    xml += "<Analysis>" +
           (f % 2 ? comments + "<Cholesterol>260</Cholesterol>" + type
                  : type + "<Cholesterol>180</Cholesterol>" + comments) +
           "</Analysis>";
    xml += "</MedActs></Folder>";
  }
  xml += "</Hospital>";
  return xml;
}

const char* const kRuleSets[] = {
    // Closed world, child-axis grant only.
    "+ /Hospital/Folder/MedActs\n",
    // Descendant-axis needle.
    "+ //Prescription\n",
    // The running example: specific re-grant inside a denial + comparison
    // predicate.
    "+ /Hospital/Folder\n"
    "- /Hospital/Folder/Admin\n"
    "+ /Hospital/Folder/Admin/Name\n"
    "- //Analysis[Type = G3]/Comments\n",
    // Wildcard step.
    "+ /Hospital/*/MedActs/Consult/Prescription\n",
    // Deny-all with a rare descendant grant.
    "- /Hospital\n"
    "+ //Protocol\n",
    // Existence predicate over a subtree.
    "+ //Consult[Protocol]\n",
    // No rules at all: everything denied, everything skippable.
    "",
};

std::vector<access::AccessRule> ParseRules(const std::string& text) {
  auto rules = access::ParseRuleList(text);
  CHECK_OK(rules.status());
  return rules.ok() ? rules.take() : std::vector<access::AccessRule>{};
}

/// Oracle-free reference: evaluate straight from the SAX parser.
using csxa::testing::DirectView;

/// One cold serve of `xml` (published without a shared cache, so nothing
/// carries over between the serves a test compares).
Result<pipeline::ServeReport> ServeOpts(const std::string& xml,
                                        index::Variant variant,
                                        const pipeline::ServeOptions& opts,
                                        const std::vector<access::AccessRule>&
                                            rules) {
  server::DocumentConfig cfg;
  cfg.variant = variant;
  cfg.layout.chunk_size = 256;
  cfg.layout.fragment_size = 32;
  cfg.key = TestKey();
  cfg.shared_cache_capacity = 0;
  server::DocumentService service;
  CSXA_RETURN_NOT_OK(service.Publish("doc", xml, cfg));
  return service.Serve("doc", rules, opts);
}

Result<pipeline::ServeReport> Serve(const std::string& xml,
                                    index::Variant variant, bool enable_skip,
                                    const std::vector<access::AccessRule>&
                                        rules) {
  return ServeOpts(xml, variant,
                   pipeline::ServeOptions(enable_skip, UINT64_MAX), rules);
}

TEST(SkipViewIdenticalAcrossVariantsAndRuleSets) {
  const std::string xml = TestDocument();
  for (const char* rules_text : kRuleSets) {
    auto rules = ParseRules(rules_text);
    const std::string expected = DirectView(xml, rules);
    for (auto variant : {index::Variant::kTc, index::Variant::kTcs,
                         index::Variant::kTcsb, index::Variant::kTcsbr}) {
      auto skip = Serve(xml, variant, /*enable_skip=*/true, rules);
      auto full = Serve(xml, variant, /*enable_skip=*/false, rules);
      CHECK_OK(skip.status());
      CHECK_OK(full.status());
      if (!skip.ok() || !full.ok()) continue;
      CHECK_EQ(skip.value().view, expected);
      CHECK_EQ(full.value().view, expected);
      // Every kSkip the evaluator books, before or after the open, is one
      // subtree the reader jumped.
      CHECK_EQ(skip.value().eval.skips_advised, skip.value().drive.skips);
      CHECK_EQ(full.value().eval.skips_advised, uint64_t{0});
      // Skipping can only reduce what the SOE decrypts, and what crosses
      // the wire up to the integrity overhead partial chunk coverage can
      // force: a full stream covers chunks whole (empty Merkle proofs),
      // while a skip-pruned read may pay one trimmed sibling set plus one
      // digest per touched chunk — at most 2·log2(m) hashes + 24 bytes, m
      // fragments per chunk. On documents whose pruned regions span
      // chunks the skip run wins outright (asserted strictly below); this
      // matrix also contains sub-chunk prunes where only the bound holds.
      const uint64_t chunks =
          (skip.value().encoded_bytes + 255) / 256;  // layout: 256-byte chunks
      const uint64_t proof_slack = chunks * (2 * 3 * 20 + 24);  // m = 8
      CHECK(skip.value().wire_bytes <=
            full.value().wire_bytes + proof_slack);
      CHECK(skip.value().soe.bytes_decrypted <=
            full.value().soe.bytes_decrypted);
    }
  }
}

TEST(BitmapVariantsStrictlyReduceTransferOnPruningScenarios) {
  const std::string xml = TestDocument(/*bulk=*/4);
  // //Prescription keeps a live descendant token everywhere, so size
  // fields alone (TCS) prune nothing; only the descendant-tag bitmap
  // proves Admin/Analysis subtrees inert.
  for (const char* rules_text : {"+ //Prescription\n",
                                 "- /Hospital\n+ //Protocol\n"}) {
    auto rules = ParseRules(rules_text);
    auto tcs = Serve(xml, index::Variant::kTcs, true, rules);
    auto tcsb = Serve(xml, index::Variant::kTcsb, true, rules);
    auto tcsbr = Serve(xml, index::Variant::kTcsbr, true, rules);
    CHECK_OK(tcs.status());
    CHECK_OK(tcsb.status());
    CHECK_OK(tcsbr.status());
    if (!tcs.ok() || !tcsb.ok() || !tcsbr.ok()) continue;
    CHECK(tcs.value().drive.skips == 0);
    CHECK(tcsb.value().drive.skips > 0);
    CHECK(tcsbr.value().drive.skips > 0);
    CHECK(tcsb.value().wire_bytes < tcs.value().wire_bytes);
    CHECK(tcsbr.value().wire_bytes < tcs.value().wire_bytes);
    CHECK(tcsb.value().soe.bytes_decrypted < tcs.value().soe.bytes_decrypted);
    CHECK(tcsbr.value().soe.bytes_decrypted <
          tcs.value().soe.bytes_decrypted);
    CHECK(tcsb.value().soe.bytes_hashed < tcs.value().soe.bytes_hashed);
    // Identical views regardless.
    CHECK_EQ(tcsb.value().view, tcs.value().view);
    CHECK_EQ(tcsbr.value().view, tcs.value().view);
  }
}

TEST(SizeFieldsAlonePruneWhenNoTokenSurvives) {
  // Child-axis-only rules: under a denied Admin no positive token is
  // alive, so even TCS (no bitmap) skips its subtrees.
  const std::string xml = TestDocument(/*bulk=*/4);
  auto rules = ParseRules("+ /Hospital/Folder/MedActs\n");
  auto tc = Serve(xml, index::Variant::kTc, true, rules);
  auto tcs = Serve(xml, index::Variant::kTcs, true, rules);
  CHECK_OK(tc.status());
  CHECK_OK(tcs.status());
  if (!tc.ok() || !tcs.ok()) return;
  CHECK(tc.value().drive.skips == 0);  // TC has no size fields to jump by.
  CHECK(tcs.value().drive.skips > 0);
  CHECK(tcs.value().wire_bytes < tc.value().wire_bytes);
  CHECK_EQ(tcs.value().view, tc.value().view);
}

// ---------------------------------------------------------------------------
// Skip-oracle unit tests: drive the evaluator by hand and inspect
// SubtreeDecision's answers against hand-built subtree facts.
// ---------------------------------------------------------------------------

/// Facts whose bitmap holds exactly `tags`, over `eval`'s tag ids. A name
/// the evaluator has never interned is named by no rule step, so leaving
/// it out of the table changes no answer.
access::SubtreeFacts KnownTags(const access::RuleEvaluator& eval,
                               const std::unordered_set<std::string>& tags) {
  access::SubtreeFacts facts;
  facts.tags_known = true;
  facts.no_elements_below = tags.empty();
  facts.present.assign(eval.tags().size(), 0);
  for (const std::string& t : tags) {
    xml::TagId id;
    if (eval.tags().Lookup(t, &id)) facts.present[id] = facts.generation;
  }
  return facts;
}

access::SubtreeFacts UnknownTags() { return access::SubtreeFacts{}; }

TEST(OracleDistinguishesDeniedForeverFromDeeperGrant) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(ParseRules("+ /a/b\n"), &ser);
  eval.OnOpen("a", 1);
  // `a` is denied (closed world) but the /a/b token is live: a <b> child
  // would be granted. Without tag knowledge the oracle must descend; a
  // bitmap without `b` proves the denial irrevocable.
  CHECK(eval.SubtreeDecision(UnknownTags(), 1) ==
        access::SkipDecision::kDescend);
  CHECK(eval.SubtreeDecision(KnownTags(eval, {"b", "z"}), 1) ==
        access::SkipDecision::kDescend);
  CHECK(eval.SubtreeDecision(KnownTags(eval, {"z", "y"}), 1) ==
        access::SkipDecision::kSkip);
  CHECK(eval.SubtreeDecision(KnownTags(eval, {}), 1) ==
        access::SkipDecision::kSkip);

  // Inside <a><z>: the b-token did not survive into z's subtree — denied
  // forever even with tags unknown.
  eval.OnOpen("z", 2);
  CHECK(eval.SubtreeDecision(UnknownTags(), 2) ==
        access::SkipDecision::kSkip);
  eval.OnClose("z", 2);
  eval.OnClose("a", 1);
  CHECK_OK(eval.Finish());
  CHECK_EQ(ser.output(), "");
}

TEST(OracleRespectsDescendantAxisAndWildcards) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(ParseRules("+ //x/*/y\n"), &ser);
  eval.OnOpen("r", 1);
  // //x keeps a token alive everywhere: only a bitmap missing x or y can
  // prune (the wildcard step matches anything, so it never prunes).
  CHECK(eval.SubtreeDecision(UnknownTags(), 1) ==
        access::SkipDecision::kDescend);
  CHECK(eval.SubtreeDecision(KnownTags(eval, {"x", "q", "y"}), 1) ==
        access::SkipDecision::kDescend);
  CHECK(eval.SubtreeDecision(KnownTags(eval, {"x", "q"}), 1) ==
        access::SkipDecision::kSkip);  // no y anywhere below
  CHECK(eval.SubtreeDecision(KnownTags(eval, {"q", "y"}), 1) ==
        access::SkipDecision::kSkip);  // no x anywhere below
  eval.OnClose("r", 1);
  CHECK_OK(eval.Finish());
}

TEST(OracleNeverSkipsPermittedOrPendingElements) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(
      ParseRules("+ /a\n- /a/b[Flag]\n"), &ser);
  eval.OnOpen("a", 1);
  // Permitted: content must stream even though no deeper rule exists.
  CHECK(eval.SubtreeDecision(KnownTags(eval, {"c"}), 1) ==
        access::SkipDecision::kDescend);
  eval.OnOpen("b", 2);
  // Pending: [Flag] is undecided, so b may yet be denied — and the
  // predicate's evidence lives below. Must descend.
  CHECK(eval.SubtreeDecision(KnownTags(eval, {"Flag"}), 2) ==
        access::SkipDecision::kDescend);
  eval.OnClose("b", 2);
  eval.OnClose("a", 1);
  CHECK_OK(eval.Finish());
  CHECK_EQ(ser.output(), "<a><b></b></a>");
}

TEST(OracleDescendsWhilePredicateEvidencePossible) {
  // A denied sibling subtree can still hold the Type element that decides
  // a predicate governing already-buffered events elsewhere.
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(
      ParseRules("+ /r/keep\n- /r[//probe]/keep\n"), &ser);
  eval.OnOpen("r", 1);
  eval.OnOpen("keep", 2);
  eval.OnClose("keep", 2);
  eval.OnOpen("junk", 2);
  // `junk` is denied and no positive rule reaches below it — but the
  // pending [//probe] predicate of /r could match inside: must descend if
  // the bitmap admits a probe, may skip if it provably cannot.
  CHECK(eval.SubtreeDecision(KnownTags(eval, {"probe"}), 2) ==
        access::SkipDecision::kDescend);
  CHECK(eval.SubtreeDecision(KnownTags(eval, {"noise"}), 2) ==
        access::SkipDecision::kSkip);
  eval.OnOpen("probe", 3);
  eval.OnClose("probe", 3);
  eval.OnClose("junk", 2);
  eval.OnClose("r", 1);
  CHECK_OK(eval.Finish());
  // probe existed, so the denial of keep applied.
  CHECK_EQ(ser.output(), "");
}

// ---------------------------------------------------------------------------
// Deferred pending subtrees (skip-now-reread-later).
// ---------------------------------------------------------------------------

/// A document whose largest subtree (MedActs) is guarded by a predicate
/// whose evidence (Clearance) arrives only *after* it in document order —
/// the adversarial pending-part workload. `grant` decides whether the
/// predicate resolves to permit or deny.
std::string GuardedDocument(bool grant, int items = 120) {
  std::string xml = "<Hospital><Folder><MedActs>";
  for (int i = 0; i < items; ++i) {
    xml += "<Consult><Diagnostic>finding-" + std::to_string(i) +
           " lorem ipsum dolor sit amet</Diagnostic></Consult>";
  }
  xml += "</MedActs><Clearance>";
  xml += grant ? "open" : "closed";
  xml += "</Clearance></Folder></Hospital>";
  return xml;
}

const char kGuardRules[] = "+ /Hospital/Folder[Clearance = open]/MedActs\n";

TEST(DeferredViewIdenticalToBufferedAndFullStreaming) {
  // Equivalence matrix: every variant × rule set × pending-budget must
  // serve the byte-identical authorized view; the budget only changes the
  // buffering strategy, never the output.
  for (const std::string& xml :
       {TestDocument(), GuardedDocument(true), GuardedDocument(false)}) {
    for (const char* rules_text : kRuleSets) {
      auto rules = ParseRules(rules_text);
      const std::string expected = DirectView(xml, rules);
      for (auto variant : {index::Variant::kTcs, index::Variant::kTcsb,
                           index::Variant::kTcsbr}) {
        for (uint64_t budget : {uint64_t{0}, uint64_t{64}, UINT64_MAX}) {
          pipeline::ServeOptions opts;
          opts.enable_skip = true;
          opts.pending_buffer_budget = budget;
          auto report = ServeOpts(xml, variant, opts, rules);
          CHECK_OK(report.status());
          if (report.ok()) CHECK_EQ(report.value().view, expected);
        }
      }
    }
  }
  // The guarded rule set across the guarded documents, all variants.
  for (bool grant : {true, false}) {
    const std::string xml = GuardedDocument(grant);
    auto rules = ParseRules(kGuardRules);
    const std::string expected = DirectView(xml, rules);
    for (auto variant : {index::Variant::kTcs, index::Variant::kTcsb,
                         index::Variant::kTcsbr}) {
      pipeline::ServeOptions deferred{/*enable_skip=*/true,
                                      /*pending_buffer_budget=*/128};
      pipeline::ServeOptions buffered{/*enable_skip=*/true, UINT64_MAX};
      auto d = ServeOpts(xml, variant, deferred, rules);
      auto b = ServeOpts(xml, variant, buffered, rules);
      CHECK_OK(d.status());
      CHECK_OK(b.status());
      if (!d.ok() || !b.ok()) continue;
      CHECK_EQ(d.value().view, expected);
      CHECK_EQ(b.value().view, expected);
      CHECK(d.value().drive.deferrals > 0);
      CHECK(b.value().drive.deferrals == 0);
    }
  }
}

TEST(DeferralKeepsPeakBufferedBytesUnderBudget) {
  // The SOE memory bound the architecture exists to honor: with the
  // deferral budget on, the huge pending subtree is never buffered, so
  // peak buffered bytes stay below the budget — while classic buffering
  // blows straight through it.
  const uint64_t kBudget = 512;
  const std::string xml = GuardedDocument(true);
  auto rules = ParseRules(kGuardRules);
  pipeline::ServeOptions deferred{true, kBudget};
  pipeline::ServeOptions buffered{true, UINT64_MAX};
  auto d = ServeOpts(xml, index::Variant::kTcsbr, deferred, rules);
  auto b = ServeOpts(xml, index::Variant::kTcsbr, buffered, rules);
  CHECK_OK(d.status());
  CHECK_OK(b.status());
  if (!d.ok() || !b.ok()) return;
  CHECK(d.value().eval.peak_buffered_bytes < kBudget);
  CHECK(b.value().eval.peak_buffered_bytes > kBudget);
  CHECK_EQ(d.value().view, b.value().view);
  // The granted subtree was re-read: bytes were fetched for it exactly
  // once, after the grant.
  CHECK(d.value().drive.rereads == 1);
  CHECK(d.value().drive.reread_bits > 0);
}

TEST(InertChildrenKeepTightBudgetAccounting) {
  // A hospital corpus under the guarded rules at a 512 B budget: deferred
  // guarded subtrees interleave with denied administrative islets whose
  // children the evaluator drops before their open. The dropped events
  // still pass through the pending queue, so the budget sees the same
  // buffered bytes and defers exactly what the full per-event path did.
  // The pins were recorded from that path (OnOpen + kSkip + OnClose for
  // every skipped element).
  bench::CorpusSpec spec;
  spec.family = bench::CorpusFamily::kHospital;
  spec.target_bytes = 64 << 10;
  const std::string xml = bench::GenerateCorpus(spec).xml;
  auto rules = ParseRules(
      bench::RulesFor(spec.family, bench::RuleFamily::kGuarded));
  pipeline::ServeOptions tight{/*enable_skip=*/true,
                               /*pending_buffer_budget=*/512};
  auto d = ServeOpts(xml, index::Variant::kTcsbr, tight, rules);
  CHECK_OK(d.status());
  if (!d.ok()) return;
  const pipeline::ServeReport& r = d.value();
  CHECK_EQ(r.view, DirectView(xml, rules));
  CHECK_EQ(r.eval.skips_advised, r.drive.skips);
  CHECK_EQ(r.drive.deferrals, uint64_t{70});
  CHECK_EQ(r.drive.rereads, uint64_t{33});
  CHECK_EQ(r.eval.events_in, uint64_t{1220});
  CHECK_EQ(r.eval.peak_buffered_bytes, uint64_t{563});
  CHECK_EQ(r.requests, uint64_t{206});
}

TEST(GuardedBudgetLedgerIsExact) {
  // The pending-buffer ledger charges each queued event's payload and
  // releases exactly that at flush, before a queued text is handed on.
  // Were the release read after the hand-off, it would drop nothing for
  // texts, inflate the ledger and defer subtrees that fit. The pins were
  // recorded from the evaluator that copied queued texts out at flush:
  // the deep, predicate-heavy families of the service benchmark's guarded
  // workload under its tight budget and twice that.
  struct Pin {
    bench::CorpusFamily family;
    uint64_t budget;
    uint64_t peak_buffered_bytes;
    uint64_t deferrals_granted;
    uint64_t deferrals_denied;
    uint64_t reread_bits;
  };
  const Pin kPins[] = {
      {bench::CorpusFamily::kDeepNest, 512, 96, 16, 27, 82927},
      {bench::CorpusFamily::kDeepNest, 1024, 1067, 1, 2, 5136},
      {bench::CorpusFamily::kPredicateStorm, 512, 548, 31, 23, 98133},
      {bench::CorpusFamily::kPredicateStorm, 1024, 1043, 0, 0, 0},
  };
  for (const Pin& pin : kPins) {
    bench::CorpusSpec spec;
    spec.family = pin.family;
    spec.target_bytes = 64 << 10;
    const std::string xml = bench::GenerateCorpus(spec).xml;
    auto rules = ParseRules(
        bench::RulesFor(spec.family, bench::RuleFamily::kGuarded));
    auto d = ServeOpts(xml, index::Variant::kTcsbr,
                       pipeline::ServeOptions(true, pin.budget), rules);
    CHECK_OK(d.status());
    if (!d.ok()) continue;
    const pipeline::ServeReport& r = d.value();
    CHECK_EQ(r.view, DirectView(xml, rules));
    CHECK_EQ(r.eval.peak_buffered_bytes, pin.peak_buffered_bytes);
    CHECK_EQ(r.eval.deferrals_granted, pin.deferrals_granted);
    CHECK_EQ(r.eval.deferrals_denied, pin.deferrals_denied);
    CHECK_EQ(r.drive.reread_bits, pin.reread_bits);
  }
}

TEST(BudgetIsGlobalAcrossPendingSiblings) {
  // Many pending sibling subtrees, each individually under the budget:
  // only what fits in the *remaining* budget may buffer, the rest must
  // defer — otherwise the siblings accumulate past the bound the budget
  // exists to enforce.
  std::string xml = "<Hospital><Folder>";
  for (int s = 0; s < 8; ++s) {
    xml += "<Consult>";
    for (int i = 0; i < 4; ++i) {
      xml += "<Diagnostic>case-" + std::to_string(s * 10 + i) +
             " lorem ipsum dolor</Diagnostic>";
    }
    xml += "</Consult>";
  }
  xml += "<Clearance>open</Clearance></Folder></Hospital>";
  auto rules = ParseRules("+ /Hospital/Folder[Clearance = open]/Consult\n");
  const std::string expected = DirectView(xml, rules);
  const uint64_t kBudget = 256;  // Each Consult is ~150 encoded bytes.
  pipeline::ServeOptions deferred{true, kBudget};
  auto d = ServeOpts(xml, index::Variant::kTcsbr, deferred, rules);
  CHECK_OK(d.status());
  if (!d.ok()) return;
  CHECK_EQ(d.value().view, expected);
  // At least one sibling buffered (fits the fresh budget) and most
  // deferred once the buffer filled up.
  CHECK(d.value().drive.deferrals >= 6);
  // Peak stays within budget + one subtree's decode-expansion slack.
  CHECK(d.value().eval.peak_buffered_bytes < 2 * kBudget);
}

TEST(DeniedDeferralsCostZeroRereads) {
  const std::string xml = GuardedDocument(false);
  auto rules = ParseRules(kGuardRules);
  pipeline::ServeOptions deferred{true, 128};
  auto d = ServeOpts(xml, index::Variant::kTcsbr, deferred, rules);
  pipeline::ServeOptions full{false, UINT64_MAX};
  auto f = ServeOpts(xml, index::Variant::kTcsbr, full, rules);
  CHECK_OK(d.status());
  CHECK_OK(f.status());
  if (!d.ok() || !f.ok()) return;
  CHECK_EQ(d.value().view, f.value().view);
  CHECK_EQ(d.value().view, "");
  CHECK(d.value().drive.deferrals == 1);
  CHECK(d.value().drive.rereads == 0);
  CHECK(d.value().drive.reread_bits == 0);
  CHECK(d.value().eval.deferrals_denied == 1);
  // The denied subtree dominates the document; deferring it means almost
  // nothing crossed the wire or was decrypted.
  CHECK(d.value().wire_bytes * 4 < f.value().wire_bytes);
  CHECK(d.value().soe.bytes_decrypted * 4 < f.value().soe.bytes_decrypted);
}

TEST(OracleDefersOnlyWhenPendingSafeAndOverBudget) {
  auto facts_with = [](const access::RuleEvaluator& eval,
                       const std::unordered_set<std::string>& tags,
                       uint64_t subtree_bytes) {
    access::SubtreeFacts facts = KnownTags(eval, tags);
    facts.subtree_bytes = subtree_bytes;
    return facts;
  };
  access::RuleEvaluator::Options opts;
  opts.pending_buffer_budget = 10;
  {
    xml::SerializingHandler ser;
    access::RuleEvaluator eval(ParseRules("+ /r[Flag]/big\n"), &ser, opts);
    eval.OnOpen("r", 1);
    eval.OnOpen("big", 2);
    // Pending ([Flag] undecided, evidence outside the subtree), no rule can
    // match inside: defer over budget, buffer under it.
    CHECK(eval.SubtreeDecision(facts_with(eval, {"item"}, 1000), 2) ==
          access::SkipDecision::kDefer);
    CHECK(eval.SubtreeDecision(facts_with(eval, {"item"}, 5), 2) ==
          access::SkipDecision::kDescend);
    // [Flag] is child-axis on r: a Flag *inside* big can never satisfy it,
    // so even a bitmap containing Flag keeps the deferral safe.
    CHECK(eval.SubtreeDecision(facts_with(eval, {"Flag"}, 1000), 2) ==
          access::SkipDecision::kDefer);
    // No bitmap (TCS): token liveness alone still proves safety here — the
    // rule fully matched at big and [Flag]'s matcher holds no live token.
    access::SubtreeFacts unknown;
    unknown.subtree_bytes = 1000;
    CHECK(eval.SubtreeDecision(unknown, 2) == access::SkipDecision::kDefer);
    eval.OnClose("big", 2);
    eval.OnClose("r", 1);
    CHECK_OK(eval.Finish());
  }
  {
    // Descendant-axis predicate: [//Flag]'s evidence *can* lie anywhere
    // below r, including inside big — must descend whatever the size,
    // unless the bitmap rules a Flag out.
    xml::SerializingHandler ser;
    access::RuleEvaluator eval(ParseRules("+ /r[//Flag]/big\n"), &ser, opts);
    eval.OnOpen("r", 1);
    eval.OnOpen("big", 2);
    CHECK(eval.SubtreeDecision(facts_with(eval, {"Flag", "item"}, 1000), 2) ==
          access::SkipDecision::kDescend);
    CHECK(eval.SubtreeDecision(facts_with(eval, {"item"}, 1000), 2) ==
          access::SkipDecision::kDefer);
    access::SubtreeFacts unknown;
    unknown.subtree_bytes = 1000;
    CHECK(eval.SubtreeDecision(unknown, 2) == access::SkipDecision::kDescend);
    eval.OnClose("big", 2);
    eval.OnClose("r", 1);
    CHECK_OK(eval.Finish());
  }
  {
    // A rule of *either sign* that could match inside forbids deferral: a
    // granted deferral is emitted verbatim, so no inside node may be
    // re-decided by a deeper target.
    xml::SerializingHandler ser;
    access::RuleEvaluator eval(
        ParseRules("+ /r[Flag]/big\n- //big/item\n"), &ser, opts);
    eval.OnOpen("r", 1);
    eval.OnOpen("big", 2);
    CHECK(eval.SubtreeDecision(facts_with(eval, {"item"}, 1000), 2) ==
          access::SkipDecision::kDescend);
    CHECK(eval.SubtreeDecision(facts_with(eval, {"noise"}, 1000), 2) ==
          access::SkipDecision::kDefer);
    eval.OnClose("big", 2);
    eval.OnClose("r", 1);
    CHECK_OK(eval.Finish());
  }
}

TEST(PipelineNeverFetchesSkippedFragments) {
  // One small permitted element before a large denied one: the large
  // subtree's fragments must never be requested from the terminal.
  std::string xml = "<r><head>h</head><big>";
  for (int i = 0; i < 200; ++i) {
    xml += "<item>payload-" + std::to_string(i) + "</item>";
  }
  xml += "</big></r>";
  auto rules = ParseRules("+ /r/head\n");
  auto skip = Serve(xml, index::Variant::kTcsbr, true, rules);
  auto full = Serve(xml, index::Variant::kTcsbr, false, rules);
  CHECK_OK(skip.status());
  CHECK_OK(full.status());
  if (!skip.ok() || !full.ok()) return;
  CHECK_EQ(skip.value().view, "<r><head>h</head></r>");
  CHECK_EQ(skip.value().view, full.value().view);
  CHECK(skip.value().drive.skips > 0);
  // The skipped subtree dominates the document: the skip run must fetch
  // a small fraction of what full streaming fetches.
  CHECK(skip.value().bytes_fetched * 4 < full.value().bytes_fetched);
  CHECK(skip.value().soe.bytes_decrypted * 4 <
        full.value().soe.bytes_decrypted);
}

}  // namespace

// Property tests of the corpus generator: every family is deterministic,
// reaches its target size, parses, and — the property the whole pipeline
// hangs on — serves the same authorized view through every encoding
// variant and serve mode as a direct SAX pass over the plaintext, for
// every matched rule family. Growing the rule set with absent-tag rules
// (the paper's rule-set-complexity axis) must never change a view.

#include <string>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "bench/corpus.h"
#include "common/status.h"
#include "crypto/sha1.h"
#include "server/document_service.h"
#include "testing.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace {

using namespace csxa;  // NOLINT

/// Lowercase hex of a SHA-1 digest, the form the pins are written in.
std::string Hex(const crypto::Sha1Digest& digest) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (uint8_t b : digest) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

using csxa::testing::DirectView;

bench::Corpus SmallCorpus(bench::CorpusFamily family, uint64_t seed = 1) {
  bench::CorpusSpec spec;
  spec.family = family;
  spec.seed = seed;
  spec.target_bytes = 6 << 10;
  return bench::GenerateCorpus(spec);
}

crypto::TripleDes::Key TestKey() {
  crypto::TripleDes::Key key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0x3c ^ (i * 41));
  }
  return key;
}

}  // namespace

TEST(FamilyNamesRoundTrip) {
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    auto parsed = bench::ParseFamily(bench::FamilyName(family));
    CHECK_OK(parsed.status());
    CHECK(parsed.value() == family);
  }
  CHECK(!bench::ParseFamily("no_such_family").ok());
  CHECK_EQ(bench::PaperFamilies().size(), size_t{3});
  CHECK_EQ(bench::AllFamilies().size(), size_t{6});
}

TEST(GenerationIsDeterministic) {
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    const bench::Corpus a = SmallCorpus(family);
    const bench::Corpus b = SmallCorpus(family);
    CHECK(a.xml == b.xml);
    CHECK_EQ(a.records, b.records);
    CHECK_EQ(a.max_depth, b.max_depth);
    // A different seed must actually change the content (same shape).
    CHECK(a.xml != SmallCorpus(family, /*seed=*/2).xml);
  }
}

TEST(TargetSizeReached) {
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    for (uint64_t target : {uint64_t{4} << 10, uint64_t{32} << 10}) {
      bench::CorpusSpec spec;
      spec.family = family;
      spec.target_bytes = target;
      const bench::Corpus corpus = bench::GenerateCorpus(spec);
      CHECK(corpus.xml.size() >= target);
      CHECK(corpus.records >= 1);
      // Overshoot is bounded by one record: a corpus stopped growing as
      // soon as it crossed the target.
      CHECK(corpus.xml.size() < target + target / 2 + 4096);
    }
  }
}

TEST(EveryCorpusParses) {
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    const bench::Corpus corpus = SmallCorpus(family);
    auto dom = xml::SaxParser::ParseToDom(corpus.xml);
    CHECK_OK(dom.status());
    CHECK(corpus.max_depth >= 2);
  }
}

TEST(DeepNestHonorsDepth) {
  for (uint32_t depth : {8u, 24u}) {
    bench::CorpusSpec spec;
    spec.family = bench::CorpusFamily::kDeepNest;
    spec.target_bytes = 4 << 10;
    spec.depth = depth;
    const bench::Corpus corpus = bench::GenerateCorpus(spec);
    // The nesting spine dominates the depth; wrappers add a few levels.
    CHECK(corpus.max_depth >= depth);
    CHECK(corpus.max_depth <= depth + 6);
  }
  // The adversarial default is deeper than any Table 2 shape.
  CHECK(SmallCorpus(bench::CorpusFamily::kDeepNest).max_depth >= 40);
}

// The central property: family × rule family × variant × serve mode all
// produce the byte-identical authorized view of a direct SAX pass.
TEST(AllFamiliesAllVariantsMatchDirectView) {
  const auto variants = {index::Variant::kTc, index::Variant::kTcs,
                         index::Variant::kTcsb, index::Variant::kTcsbr};
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    const bench::Corpus corpus = SmallCorpus(family);
    for (index::Variant variant : variants) {
      server::DocumentConfig cfg;
      cfg.variant = variant;
      cfg.key = TestKey();
      cfg.layout.chunk_size = 1024;
      cfg.layout.fragment_size = 64;
      cfg.shared_cache_capacity = 0;  // Every serve cold.
      server::DocumentService service;
      const Status published = service.Publish("doc", corpus.xml, cfg);
      CHECK_OK(published);
      if (!published.ok()) continue;
      for (bench::RuleFamily rf : bench::AllRuleFamilies()) {
        auto rules = access::ParseRuleList(bench::RulesFor(family, rf));
        CHECK_OK(rules.status());
        const std::string reference = DirectView(corpus.xml, rules.value());

        pipeline::ServeOptions full{/*enable_skip=*/false, UINT64_MAX};
        pipeline::ServeOptions skip{/*enable_skip=*/true, UINT64_MAX};
        pipeline::ServeOptions deferred{/*enable_skip=*/true, 2048};
        for (const pipeline::ServeOptions& opts : {full, skip, deferred}) {
          auto report = service.Serve("doc", rules.value(), opts);
          CHECK_OK(report.status());
          if (report.ok() && report.value().view != reference) {
            testing::Fail(
                __FILE__, __LINE__,
                std::string(bench::FamilyName(family)) + "/" +
                    bench::RuleFamilyName(rf) + "/" + VariantName(variant) +
                    ": view diverges from the direct SAX pass");
          }
        }
      }
    }
  }
}

// Views pinned by digest. Every other equivalence check in the suite
// compares RuleEvaluator with itself through different plumbing, so a
// semantic slip in the evaluator would pass all of them. These SHA-1
// digests were recorded from the evaluator as it stood before its hot path
// was rewritten (shared_ptr node records, string tag matching, no decision
// memo); any change to what a view discloses fails here.
struct PinnedView {
  const char* family;
  const char* rules;
  const char* sha1;
};

constexpr PinnedView kPinnedViews[] = {
    {"hospital", "closed_world", "614ecf035d61ffc325dc65ae65362c906deabcbb"},
    {"hospital", "needle", "35b27a7c6a4f5913dd7048070b1875b999e5b4d8"},
    {"hospital", "guarded", "2f93f15dee6a7970e1bd26d3094a5710366ceeac"},
    {"hospital", "predicate_heavy", "72d55c5b717d5dfbbf23822e45792648e53053ba"},
    {"wsu", "closed_world", "221ea6eb14d324ab4f1ac890d9f62b9d0ca72f71"},
    {"wsu", "needle", "5b485af7c176aaa033257ec208a476f049b07f62"},
    {"wsu", "guarded", "9f656ef1b8ece7525da64a8e178bc3699301d93c"},
    {"wsu", "predicate_heavy", "1490bb10fc702306f14fb95b8d4a40423686a152"},
    {"sigmod", "closed_world", "1275029cf642c03b52f6ed0eb037f8a2db42b341"},
    {"sigmod", "needle", "8d0df1e0a33f1f98cafc497c4aa8c28ab7a2266d"},
    {"sigmod", "guarded", "a2411664e2c4cff147ed6e233c67df770ba18c91"},
    {"sigmod", "predicate_heavy", "17d579d788851a3865b7b1d0f11546b5093a2a5d"},
    {"deep_nest", "closed_world", "11c83794f694d9f3f0663328a290a08e9997ec87"},
    {"deep_nest", "needle", "ca7866fb35a6cae6cf64f15774a24f55d02bc911"},
    {"deep_nest", "guarded", "9563020ee94a87ffc737ee485fa335e92e3896a1"},
    {"deep_nest", "predicate_heavy",
     "e182cec7790b9bcb9583f07e0919a800f303ff6b"},
    {"predicate_storm", "closed_world",
     "07d9debe18b0a2500ce33963f980fd5aed0b0e1e"},
    {"predicate_storm", "needle", "99e694a6c5d502bc06fd3f2184376ac3516ef4e3"},
    {"predicate_storm", "guarded", "b325a71e74d33846536078d8589ffd15c97b4a5a"},
    {"predicate_storm", "predicate_heavy",
     "67ffa8cb27de4b67b2aeeb1330869fe18ce1b0c7"},
    {"flat_text", "closed_world", "05e3f7e58721d8a2b68a24d455c05e2bd45e638e"},
    {"flat_text", "needle", "947978ab2e0d080e56402b1c8d17e9b49f854509"},
    {"flat_text", "guarded", "05e3f7e58721d8a2b68a24d455c05e2bd45e638e"},
    {"flat_text", "predicate_heavy",
     "8d6f0a515bd12291f8784b3aca408672fa7a3308"},
};

TEST(ViewsMatchPinnedDigests) {
  server::DocumentConfig cfg;
  cfg.variant = index::Variant::kTcsbr;
  cfg.key = TestKey();
  cfg.layout.chunk_size = 1024;
  cfg.layout.fragment_size = 64;
  cfg.shared_cache_capacity = 0;
  const pipeline::ServeOptions modes[] = {{/*enable_skip=*/false, UINT64_MAX},
                                          {/*enable_skip=*/true, UINT64_MAX},
                                          {/*enable_skip=*/true, 512}};
  const char* mode_names[] = {"full", "skip", "defer512"};
  size_t checked = 0;
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    const bench::Corpus corpus = bench::GenerateCorpus(
        bench::CorpusSpec{family, /*seed=*/7, /*target_bytes=*/12 << 10,
                          /*depth=*/0});
    server::DocumentService service;
    const Status published = service.Publish("doc", corpus.xml, cfg);
    CHECK_OK(published);
    if (!published.ok()) continue;
    for (bench::RuleFamily rf : bench::AllRuleFamilies()) {
      const std::string name = std::string(bench::FamilyName(family)) + "/" +
                               bench::RuleFamilyName(rf);
      const char* pinned = nullptr;
      for (const PinnedView& p : kPinnedViews) {
        if (name == std::string(p.family) + "/" + p.rules) pinned = p.sha1;
      }
      auto rules = access::ParseRuleList(bench::RulesFor(family, rf));
      CHECK_OK(rules.status());
      auto check = [&](const std::string& mode, const std::string& view) {
        const std::string got = Hex(crypto::Sha1::Hash(view));
        if (pinned == nullptr || got != pinned) {
          testing::Fail(__FILE__, __LINE__,
                        name + "/" + mode + ": view digest " + got +
                            " != pinned " + (pinned ? pinned : "(none)"));
        }
        ++checked;
      };
      check("direct", DirectView(corpus.xml, rules.value()));
      for (size_t m = 0; m < 3; ++m) {
        auto report = service.Serve("doc", rules.value(), modes[m]);
        CHECK_OK(report.status());
        if (report.ok()) check(mode_names[m], report.value().view);
      }
    }
  }
  CHECK_EQ(checked, std::size(kPinnedViews) * 4);
}

// Rule-set-size invariance: absent-tag rules grow the token automata but
// can never change what is served.
TEST(AbsentRulesNeverChangeTheView) {
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    const bench::Corpus corpus = SmallCorpus(family);
    for (bench::RuleFamily rf : bench::AllRuleFamilies()) {
      auto base = access::ParseRuleList(bench::RulesFor(family, rf));
      auto grown = access::ParseRuleList(
          bench::RulesFor(family, rf, /*extra_absent_rules=*/12));
      CHECK_OK(base.status());
      CHECK_OK(grown.status());
      CHECK(grown.value().size() == base.value().size() + 12);
      CHECK(DirectView(corpus.xml, base.value()) ==
            DirectView(corpus.xml, grown.value()));
    }
  }
}

// The matched rule families are not vacuous: on every family, at least
// the closed-world and guarded sets select something, and no rule set
// grants the whole document verbatim.
TEST(RuleFamiliesAreDiscriminating) {
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    const bench::Corpus corpus = SmallCorpus(family);
    for (bench::RuleFamily rf :
         {bench::RuleFamily::kClosedWorld, bench::RuleFamily::kGuarded,
          bench::RuleFamily::kPredicateHeavy}) {
      auto rules = access::ParseRuleList(bench::RulesFor(family, rf));
      CHECK_OK(rules.status());
      const std::string view = DirectView(corpus.xml, rules.value());
      if (view.empty()) {
        testing::Fail(__FILE__, __LINE__,
                      std::string(bench::FamilyName(family)) + "/" +
                          bench::RuleFamilyName(rf) + ": empty view");
      }
      if (view.size() >= corpus.xml.size()) {
        testing::Fail(__FILE__, __LINE__,
                      std::string(bench::FamilyName(family)) + "/" +
                          bench::RuleFamilyName(rf) + ": view prunes nothing");
      }
    }
  }
}

// Evaluator pins at a size where predicate instances, queue slots and
// watcher lists are reused many times over: guarded and predicate_heavy on
// every family at 256 KiB, skip and defer512. Each row holds the view's
// SHA-1 and the evaluator counters that follow the pending path
// (instances spawned, watcher registrations, buffered peak, deferral
// outcomes), recorded from the evaluator that still allocated a
// reference-counted instance per spawn and a string per queued text.
struct PinnedServe {
  const char* name;  ///< family/rules/mode
  const char* sha1;
  uint64_t events_in;
  uint64_t predicates_spawned;
  uint64_t watcher_subscriptions;
  uint64_t peak_buffered_bytes;
  uint64_t deferrals_granted;
  uint64_t deferrals_denied;
};

constexpr PinnedServe kPinnedServes[] = {
    {"hospital/guarded/skip",
     "442987a0b89c625e1124d99f070238833a6ae2a3",
     12609, 193, 7118, 3274, 0, 0},
    {"hospital/guarded/defer512",
     "442987a0b89c625e1124d99f070238833a6ae2a3",
     4332, 193, 1805, 711, 136, 127},
    {"hospital/predicate_heavy/skip",
     "325915cc6fe9f36755d91250b353231b32ff9e48",
     8222, 386, 638, 142, 0, 0},
    {"hospital/predicate_heavy/defer512",
     "325915cc6fe9f36755d91250b353231b32ff9e48",
     8222, 386, 638, 142, 0, 0},
    {"wsu/guarded/skip",
     "ca6251d7eb72d79b7b7a93af3a111280848ff4e1",
     21704, 1077, 2154, 156, 0, 0},
    {"wsu/guarded/defer512",
     "ca6251d7eb72d79b7b7a93af3a111280848ff4e1",
     21704, 1077, 2154, 156, 0, 0},
    {"wsu/predicate_heavy/skip",
     "2df04d86ac8e771fdc5355e766b9807dca8d4955",
     20627, 1077, 0, 16, 0, 0},
    {"wsu/predicate_heavy/defer512",
     "2df04d86ac8e771fdc5355e766b9807dca8d4955",
     20627, 1077, 0, 16, 0, 0},
    {"sigmod/guarded/skip",
     "1c9dd67b54ef58dbe21ba2b2bf593a7238475af5",
     20476, 286, 11262, 1643, 0, 0},
    {"sigmod/guarded/defer512",
     "1c9dd67b54ef58dbe21ba2b2bf593a7238475af5",
     10016, 286, 4597, 575, 163, 74},
    {"sigmod/predicate_heavy/skip",
     "9a9a565e722c4fd85d3bc0694ef0fa620c1f5789",
     9289, 599, 0, 17, 0, 0},
    {"sigmod/predicate_heavy/defer512",
     "9a9a565e722c4fd85d3bc0694ef0fa620c1f5789",
     9289, 599, 0, 17, 0, 0},
    {"deep_nest/guarded/skip",
     "e92bd4bf0ea37e2b2a89e887b86876a2f05150f0",
     42502, 170, 24820, 1039, 0, 0},
    {"deep_nest/guarded/defer512",
     "e92bd4bf0ea37e2b2a89e887b86876a2f05150f0",
     1532, 170, 170, 24, 77, 93},
    {"deep_nest/predicate_heavy/skip",
     "613387dca9ba65ec17eda25e1f673130c3284dc2",
     42317, 8160, 265856, 1017, 0, 0},
    {"deep_nest/predicate_heavy/defer512",
     "613387dca9ba65ec17eda25e1f673130c3284dc2",
     42162, 8160, 263314, 969, 7, 148},
    {"predicate_storm/guarded/skip",
     "284bbb6c6455eba14722e84cf9c2233e82c6bdca",
     16881, 415, 9186, 768, 0, 0},
    {"predicate_storm/guarded/defer512",
     "284bbb6c6455eba14722e84cf9c2233e82c6bdca",
     10810, 415, 5350, 542, 107, 113},
    {"predicate_storm/predicate_heavy/skip",
     "d8bb766e1bd019e7e896e6b118f7c0010d3c8906",
     16881, 3685, 15625, 768, 0, 0},
    {"predicate_storm/predicate_heavy/defer512",
     "d8bb766e1bd019e7e896e6b118f7c0010d3c8906",
     16630, 3685, 15189, 587, 106, 145},
    {"flat_text/guarded/skip",
     "31dfe2b20ea515de1d831aedd33bf9405b51556e",
     9637, 1, 6388, 244471, 0, 0},
    {"flat_text/guarded/defer512",
     "31dfe2b20ea515de1d831aedd33bf9405b51556e",
     3261, 1, 1606, 3848, 1594, 0},
    {"flat_text/predicate_heavy/skip",
     "c0c75e4f49d3874cb0692d1dc6bf650c9030b3cd",
     9636, 1597, 6388, 177, 0, 0},
    {"flat_text/predicate_heavy/defer512",
     "c0c75e4f49d3874cb0692d1dc6bf650c9030b3cd",
     9636, 1597, 6388, 177, 0, 0},
};

TEST(PendingPathServesMatchPinnedCounters) {
  server::DocumentConfig cfg;
  cfg.variant = index::Variant::kTcsbr;
  cfg.key = TestKey();
  cfg.layout.chunk_size = 1024;
  cfg.layout.fragment_size = 64;
  cfg.shared_cache_capacity = 0;
  const pipeline::ServeOptions modes[] = {{/*enable_skip=*/true, UINT64_MAX},
                                          {/*enable_skip=*/true, 512}};
  const char* mode_names[] = {"skip", "defer512"};
  size_t checked = 0;
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    const bench::Corpus corpus = bench::GenerateCorpus(
        bench::CorpusSpec{family, /*seed=*/7, /*target_bytes=*/256 << 10,
                          /*depth=*/0});
    server::DocumentService service;
    const Status published = service.Publish("doc", corpus.xml, cfg);
    CHECK_OK(published);
    if (!published.ok()) continue;
    for (bench::RuleFamily rf :
         {bench::RuleFamily::kGuarded, bench::RuleFamily::kPredicateHeavy}) {
      auto rules = access::ParseRuleList(bench::RulesFor(family, rf));
      CHECK_OK(rules.status());
      if (!rules.ok()) continue;
      for (size_t m = 0; m < 2; ++m) {
        const std::string name = std::string(bench::FamilyName(family)) +
                                 "/" + bench::RuleFamilyName(rf) + "/" +
                                 mode_names[m];
        auto report = service.Serve("doc", rules.value(), modes[m]);
        CHECK_OK(report.status());
        if (!report.ok()) continue;
        const access::RuleEvaluator::Stats& s = report.value().eval;
        const PinnedServe got{
            nullptr,
            nullptr,
            s.events_in,
            s.predicates_spawned,
            s.watcher_subscriptions,
            s.peak_buffered_bytes,
            s.deferrals_granted,
            s.deferrals_denied};
        const std::string sha1 = Hex(crypto::Sha1::Hash(report.value().view));
        const PinnedServe* pin = nullptr;
        for (const PinnedServe& p : kPinnedServes) {
          if (name == p.name) pin = &p;
        }
        const bool match =
            pin != nullptr && sha1 == pin->sha1 &&
            got.events_in == pin->events_in &&
            got.predicates_spawned == pin->predicates_spawned &&
            got.watcher_subscriptions == pin->watcher_subscriptions &&
            got.peak_buffered_bytes == pin->peak_buffered_bytes &&
            got.deferrals_granted == pin->deferrals_granted &&
            got.deferrals_denied == pin->deferrals_denied;
        if (!match) {
          // The row as it would be pinned, so a deliberate change can be
          // reviewed against it.
          testing::Fail(
              __FILE__, __LINE__,
              name + ": got {\"" + name + "\", \"" + sha1 + "\", " +
                  std::to_string(got.events_in) + ", " +
                  std::to_string(got.predicates_spawned) + ", " +
                  std::to_string(got.watcher_subscriptions) + ", " +
                  std::to_string(got.peak_buffered_bytes) + ", " +
                  std::to_string(got.deferrals_granted) + ", " +
                  std::to_string(got.deferrals_denied) + "}");
        }
        ++checked;
      }
    }
  }
  CHECK_EQ(checked, std::size(kPinnedServes));
}

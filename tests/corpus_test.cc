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
#include "server/document_service.h"
#include "testing.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace {

using namespace csxa;  // NOLINT

std::string DirectView(const std::string& xml,
                       const std::vector<access::AccessRule>& rules) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules, &ser);
  CHECK_OK(xml::SaxParser::Parse(xml, &eval));
  CHECK_OK(eval.Finish());
  return ser.output();
}

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

TEST(StreamingMatchesBatchByteForByte) {
  // The sink API is the primary generator and GenerateCorpus its
  // degenerate wrapper — so streamed pieces concatenated must be the
  // batch string exactly, the summary must match the batch metadata, and
  // the emission must actually be piecewise (holding one record, not the
  // document).
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    const bench::CorpusSpec spec{family, /*seed=*/1,
                                 /*target_bytes=*/32768, /*depth=*/0};
    const bench::Corpus batch = bench::GenerateCorpus(spec);
    std::string streamed;
    size_t pieces = 0;
    size_t largest_piece = 0;
    const bench::CorpusSummary summary =
        bench::StreamCorpus(spec, [&](std::string_view piece) {
          streamed.append(piece.data(), piece.size());
          ++pieces;
          largest_piece = std::max(largest_piece, piece.size());
        });
    CHECK(streamed == batch.xml);
    CHECK_EQ(summary.total_bytes, batch.xml.size());
    CHECK_EQ(summary.records, batch.records);
    CHECK_EQ(summary.max_depth, batch.max_depth);
    CHECK(pieces > 2);  // Root tag + records + closing, not one blob.
    CHECK(largest_piece < batch.xml.size() / 4);
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

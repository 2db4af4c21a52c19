#ifndef CSXA_BENCH_CORPUS_H_
#define CSXA_BENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace csxa::bench {

/// Deterministic, seeded corpus generator in the shape of the paper's
/// Table 2 datasets plus adversarial families, so every optimization is
/// measured against workloads it could actually lose on — not one hand-
/// built 21 KB document. Same spec → byte-identical corpus, on any
/// platform (the generator uses common/splitmix64.h, never libc rand), so
/// benchmarks, property tests and the service benchmark all reproduce
/// exactly.
enum class CorpusFamily : uint8_t {
  /// Hospital records (Table 2): deep repeated folders — bulky protected
  /// administrative islets, medical acts with rare Protocol needles,
  /// trailing Clearance evidence guarding each folder's dominant subtree.
  kHospital,
  /// WSU course catalog (Table 2): wide and flat — thousands of small
  /// sibling records with one-line fields, a rare bulky Footnote, and a
  /// Credit field placed after Title so guarded rules buffer pending parts.
  kWsu,
  /// Sigmod Record bibliography (Table 2): issues holding article lists
  /// with author sub-lists; trailing per-issue Scope evidence.
  kSigmod,
  /// Adversarial: one long spine of nested sections per record — stresses
  /// checkpoint depth, the navigator frame stack and O(depth) seeks.
  kDeepNest,
  /// Adversarial: every case's dominant Body guarded by evidence that
  /// arrives only after it, with nested per-paragraph guards — the
  /// pending-buffer/deferral storm.
  kPredicateStorm,
  /// Adversarial: skip-hostile flat prose where almost everything is
  /// granted — the workload where stream-all must win and skip machinery
  /// must cost (almost) nothing.
  kFlatText,
};

const char* FamilyName(CorpusFamily family);
Result<CorpusFamily> ParseFamily(std::string_view name);
/// All six families; the paper's Table 2 shapes are the first three.
std::vector<CorpusFamily> AllFamilies();
std::vector<CorpusFamily> PaperFamilies();

/// The matched rule-set families every corpus ships with.
enum class RuleFamily : uint8_t {
  kClosedWorld,     ///< Child-axis grants only: size fields alone prune.
  kNeedle,          ///< One descendant-axis grant of a rare tag: bitmap work.
  kGuarded,         ///< Predicate whose evidence trails the guarded subtree.
  kPredicateHeavy,  ///< Mixed signs, re-grants inside denials, comparisons.
};

const char* RuleFamilyName(RuleFamily family);
std::vector<RuleFamily> AllRuleFamilies();

struct CorpusSpec {
  CorpusFamily family = CorpusFamily::kHospital;
  /// Content seed: bumping it yields a same-shape, different-content
  /// corpus — server_test's version-bump race derives version v's content
  /// from seed + v.
  uint64_t seed = 1;
  /// Generation appends whole records until the document reaches this size
  /// (so the actual size overshoots by at most one record).
  uint64_t target_bytes = 1 << 20;
  /// Element nesting depth of kDeepNest records; 0 = family default (48).
  /// Ignored by the other families (their depth is part of the shape).
  uint32_t depth = 0;
};

struct Corpus {
  CorpusSpec spec;
  std::string xml;
  uint64_t records = 0;    ///< Top-level records generated.
  uint32_t max_depth = 0;  ///< Deepest element nesting in the document.
};

/// Pure synthesis — cannot fail; same spec yields byte-identical output.
Corpus GenerateCorpus(const CorpusSpec& spec);

/// The rule set of `rules` matched to `family`'s tag vocabulary.
/// `extra_absent_rules` appends that many descendant-axis grants of tags
/// absent from the corpus — the rule-set-size axis of the paper's
/// complexity experiment (the automata grow, the view must not change).
std::string RulesFor(CorpusFamily family, RuleFamily rules,
                     int extra_absent_rules = 0);

}  // namespace csxa::bench

#endif  // CSXA_BENCH_CORPUS_H_

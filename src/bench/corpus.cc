#include "bench/corpus.h"

#include <algorithm>

namespace csxa::bench {

namespace {

/// splitmix64: tiny, seedable, identical on every platform. The corpus
/// must be a pure function of the spec — libc rand() is neither.
struct Rng {
  uint64_t state;

  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
  bool Chance(uint64_t num, uint64_t den) { return Below(den) < num; }
};

const char* const kLexicon[] = {
    "amoxicillin", "baseline",  "cardiology", "dosage",    "episodic",
    "followup",    "gradual",   "hematology", "interim",   "juncture",
    "kinetics",    "lab",       "margin",     "nominal",   "oncology",
    "protocol",    "quarterly", "renal",      "screening", "titration",
    "uptake",      "vitals",    "watchful",   "xenograft", "yield",
    "zone",        "acute",     "benign",     "chronic",   "diffuse",
};
constexpr size_t kLexiconSize = sizeof(kLexicon) / sizeof(kLexicon[0]);

std::string Words(Rng* rng, int n) {
  std::string s;
  for (int i = 0; i < n; ++i) {
    if (i > 0) s += ' ';
    s += kLexicon[rng->Below(kLexiconSize)];
  }
  return s;
}

std::string Name(Rng* rng) {
  const char* const names[] = {"alva",  "bodin", "chen",  "doyle", "eriks",
                               "fujii", "garza", "haley", "iwata", "joule"};
  return names[rng->Below(10)];
}

std::string Tagged(const std::string& tag, const std::string& text) {
  return "<" + tag + ">" + text + "</" + tag + ">";
}

// --- Family record builders ----------------------------------------------
// Each appends one top-level record to *xml; generation loops records until
// the target size is reached, so corpus size scales by record count while
// the shape (and thus the per-record rule semantics) stays fixed.

void HospitalRecord(Rng* rng, uint64_t f, std::string* xml) {
  *xml += "<Folder><Admin>";
  *xml += Tagged("Name", Name(rng) + "-" + std::to_string(f));
  *xml += Tagged("SSN", std::to_string(100000000 + rng->Below(900000000)));
  *xml += Tagged("Insurance", Words(rng, 14));
  *xml += "<Billing>";
  for (int b = 0; b < 3; ++b) *xml += Tagged("Item", Words(rng, 7));
  *xml += "</Billing></Admin><MedActs>";
  for (int c = 0; c < 3; ++c) {
    *xml += "<Consult>";
    *xml += Tagged("Date", "2004-0" + std::to_string(1 + rng->Below(9)) +
                               "-" + std::to_string(10 + rng->Below(18)));
    *xml += Tagged("Diagnostic", Words(rng, 6));
    // The protected islet: a rare tag deep inside mostly-denied bulk.
    if (rng->Chance(1, 8)) *xml += Tagged("Protocol", Words(rng, 4));
    *xml += Tagged("Prescription", "rx-" + std::to_string(rng->Below(9999)) +
                                       " " + Words(rng, 3));
    *xml += "</Consult>";
  }
  for (int a = 0; a < 2; ++a) {
    std::string type = Tagged("Type", rng->Chance(1, 3) ? "G3" : "G2");
    std::string chol =
        Tagged("Cholesterol", std::to_string(150 + 10 * rng->Below(12)));
    std::string comments = Tagged("Comments", Words(rng, 9));
    // Type after Comments half the time: the comparison predicate stays
    // pending across the comments, which must be buffered as parts.
    *xml += "<Analysis>";
    *xml += rng->Chance(1, 2) ? type + chol + comments
                              : comments + chol + type;
    *xml += "</Analysis>";
  }
  *xml += "</MedActs>";
  // Evidence after the bulk it guards — the deferral workload.
  *xml += Tagged("Clearance", rng->Chance(1, 2) ? "open" : "closed");
  *xml += "</Folder>";
}

void WsuRecord(Rng* rng, uint64_t i, std::string* xml) {
  *xml += "<Course>";
  *xml += Tagged("Sln", std::to_string(1000 + i));
  *xml += Tagged("Prefix", rng->Chance(1, 2) ? "CS" : "EE");
  *xml += Tagged("Num", std::to_string(100 + rng->Below(500)));
  *xml += Tagged("Title", Words(rng, 4));
  *xml += Tagged("Instructor", Name(rng));
  *xml += Tagged("Days", rng->Chance(1, 2) ? "MWF" : "TTH");
  *xml += "<Place>";
  *xml += Tagged("Bldg", Words(rng, 1));
  *xml += Tagged("Room", std::to_string(100 + rng->Below(300)));
  *xml += "</Place>";
  // Credit *after* Title/Instructor: [Credit = 4] guards already-seen parts.
  *xml += Tagged("Credit", std::to_string(1 + rng->Below(4)));
  // The rare bulky subtree the needle rule hunts.
  if (rng->Chance(1, 12)) *xml += Tagged("Footnote", Words(rng, 24));
  *xml += "</Course>";
}

void SigmodRecord(Rng* rng, uint64_t i, std::string* xml) {
  *xml += "<Issue>";
  *xml += Tagged("Volume", std::to_string(11 + i / 4));
  *xml += Tagged("Number", std::to_string(1 + i % 4));
  *xml += "<Articles>";
  const int articles = 2 + static_cast<int>(rng->Below(3));
  int page = 1;
  for (int a = 0; a < articles; ++a) {
    *xml += "<Article>";
    *xml += Tagged("Title", Words(rng, 6));
    *xml += Tagged("InitPage", std::to_string(page));
    page += 1 + static_cast<int>(rng->Below(30));
    *xml += Tagged("EndPage", std::to_string(page - 1));
    *xml += "<Authors>";
    const int authors = 1 + static_cast<int>(rng->Below(3));
    for (int u = 0; u < authors; ++u) *xml += Tagged("Author", Name(rng));
    *xml += "</Authors>";
    if (rng->Chance(1, 3)) *xml += Tagged("Abstract", Words(rng, 28));
    *xml += "</Article>";
  }
  *xml += "</Articles>";
  *xml += Tagged("Scope", rng->Chance(2, 3) ? "public" : "internal");
  *xml += "</Issue>";
}

void DeepNestRecord(Rng* rng, uint32_t depth, std::string* xml) {
  *xml += "<Tree>";
  *xml += Tagged("Meta", Words(rng, 5));
  for (uint32_t d = 0; d < depth; ++d) {
    *xml += "<S>";
    *xml += Tagged("Label", rng->Chance(1, 16) ? "zzsecret"
                                               : Words(rng, 1));
  }
  *xml += Tagged("Leaf", Words(rng, 6));
  for (uint32_t d = 0; d < depth; ++d) *xml += "</S>";
  *xml += Tagged("Key", rng->Chance(1, 2) ? "open" : "closed");
  *xml += "</Tree>";
}

void PredicateStormRecord(Rng* rng, std::string* xml) {
  *xml += "<Case><Body>";
  const int paras = 3 + static_cast<int>(rng->Below(3));
  for (int p = 0; p < paras; ++p) {
    *xml += "<Para>";
    *xml += Tagged("Text", Words(rng, 12));
    if (rng->Chance(1, 5)) *xml += Tagged("Cite", Words(rng, 3));
    // Per-paragraph evidence after the paragraph's content: nested
    // pendings inside a pending Body.
    *xml += Tagged("Flag", rng->Chance(1, 4) ? "hot" : "cold");
    *xml += "</Para>";
  }
  *xml += "</Body>";
  *xml += Tagged("Verdict", rng->Chance(1, 2) ? "grant" : "deny");
  *xml += "</Case>";
}

void FlatTextRecord(Rng* rng, uint64_t i, std::string* xml) {
  if (i % 64 == 63) {
    *xml += Tagged("Note", Words(rng, 8));
    return;
  }
  *xml += "<P>";
  *xml += Words(rng, 18);
  *xml += Tagged("K", rng->Chance(1, 6) ? "d" : "f");
  *xml += "</P>";
}

const char* RootTag(CorpusFamily family) {
  switch (family) {
    case CorpusFamily::kHospital: return "Hospital";
    case CorpusFamily::kWsu: return "Catalog";
    case CorpusFamily::kSigmod: return "SigmodRecord";
    case CorpusFamily::kDeepNest: return "Deep";
    case CorpusFamily::kPredicateStorm: return "Docket";
    case CorpusFamily::kFlatText: return "Text";
  }
  return "Doc";
}

/// Deepest element nesting in `xml`.
uint32_t MaxDepth(std::string_view xml) {
  uint32_t depth = 0;
  uint32_t max_depth = 0;
  for (size_t i = 0; i + 1 < xml.size(); ++i) {
    if (xml[i] != '<') continue;
    if (xml[i + 1] == '/') {
      if (depth > 0) --depth;
    } else {
      max_depth = std::max(max_depth, ++depth);
    }
  }
  return max_depth;
}

}  // namespace

const char* FamilyName(CorpusFamily family) {
  switch (family) {
    case CorpusFamily::kHospital: return "hospital";
    case CorpusFamily::kWsu: return "wsu";
    case CorpusFamily::kSigmod: return "sigmod";
    case CorpusFamily::kDeepNest: return "deep_nest";
    case CorpusFamily::kPredicateStorm: return "predicate_storm";
    case CorpusFamily::kFlatText: return "flat_text";
  }
  return "?";
}

Result<CorpusFamily> ParseFamily(std::string_view name) {
  for (CorpusFamily family : AllFamilies()) {
    if (name == FamilyName(family)) return family;
  }
  return Status::InvalidArgument("unknown corpus family: " +
                                 std::string(name));
}

std::vector<CorpusFamily> AllFamilies() {
  return {CorpusFamily::kHospital,       CorpusFamily::kWsu,
          CorpusFamily::kSigmod,         CorpusFamily::kDeepNest,
          CorpusFamily::kPredicateStorm, CorpusFamily::kFlatText};
}

std::vector<CorpusFamily> PaperFamilies() {
  return {CorpusFamily::kHospital, CorpusFamily::kWsu, CorpusFamily::kSigmod};
}

const char* RuleFamilyName(RuleFamily family) {
  switch (family) {
    case RuleFamily::kClosedWorld: return "closed_world";
    case RuleFamily::kNeedle: return "needle";
    case RuleFamily::kGuarded: return "guarded";
    case RuleFamily::kPredicateHeavy: return "predicate_heavy";
  }
  return "?";
}

std::vector<RuleFamily> AllRuleFamilies() {
  return {RuleFamily::kClosedWorld, RuleFamily::kNeedle, RuleFamily::kGuarded,
          RuleFamily::kPredicateHeavy};
}

Corpus GenerateCorpus(const CorpusSpec& spec) {
  Corpus corpus;
  corpus.spec = spec;
  std::string& xml = corpus.xml;
  xml.reserve(spec.target_bytes + 4096);
  // Mix the family into the seed so two families at one seed do not share
  // a record stream shape-by-accident.
  Rng rng{spec.seed * 0x100000001b3ULL +
          static_cast<uint64_t>(spec.family) * 0x9e3779b9ULL};
  const uint32_t depth = spec.depth != 0 ? spec.depth : 48;

  xml += "<";
  xml += RootTag(spec.family);
  xml += ">";
  const std::string closing =
      std::string("</") + RootTag(spec.family) + ">";
  // kFlatText's guarded rule needs its evidence as the *last* child, so
  // its record loop stops one Lang element short of the target.
  const uint64_t reserve =
      closing.size() +
      (spec.family == CorpusFamily::kFlatText ? 16 : 0);
  while (xml.size() + reserve < spec.target_bytes || corpus.records == 0) {
    switch (spec.family) {
      case CorpusFamily::kHospital:
        HospitalRecord(&rng, corpus.records, &xml);
        break;
      case CorpusFamily::kWsu:
        WsuRecord(&rng, corpus.records, &xml);
        break;
      case CorpusFamily::kSigmod:
        SigmodRecord(&rng, corpus.records, &xml);
        break;
      case CorpusFamily::kDeepNest:
        DeepNestRecord(&rng, depth, &xml);
        break;
      case CorpusFamily::kPredicateStorm:
        PredicateStormRecord(&rng, &xml);
        break;
      case CorpusFamily::kFlatText:
        FlatTextRecord(&rng, corpus.records, &xml);
        break;
    }
    ++corpus.records;
  }
  if (spec.family == CorpusFamily::kFlatText) {
    // Root-level evidence after every paragraph: the guarded rule set
    // holds the entire document pending until its very last element.
    xml += Tagged("Lang", "en");
  }
  xml += closing;
  corpus.max_depth = MaxDepth(xml);
  return corpus;
}

std::string RulesFor(CorpusFamily family, RuleFamily rules,
                     int extra_absent_rules) {
  std::string text;
  switch (family) {
    case CorpusFamily::kHospital:
      switch (rules) {
        case RuleFamily::kClosedWorld:
          text = "+ /Hospital/Folder/MedActs\n";
          break;
        case RuleFamily::kNeedle:
          text = "+ //Protocol\n";
          break;
        case RuleFamily::kGuarded:
          text = "+ /Hospital/Folder[Clearance = open]/MedActs\n";
          break;
        case RuleFamily::kPredicateHeavy:
          text =
              "+ /Hospital/Folder\n"
              "- /Hospital/Folder/Admin\n"
              "+ /Hospital/Folder/Admin/Name\n"
              "- //Analysis[Type = G3]/Comments\n";
          break;
      }
      break;
    case CorpusFamily::kWsu:
      switch (rules) {
        case RuleFamily::kClosedWorld:
          text = "+ /Catalog/Course/Title\n+ /Catalog/Course/Instructor\n";
          break;
        case RuleFamily::kNeedle:
          text = "+ //Footnote\n";
          break;
        case RuleFamily::kGuarded:
          text = "+ /Catalog/Course[Credit = 4]/Title\n";
          break;
        case RuleFamily::kPredicateHeavy:
          text =
              "+ /Catalog/Course\n"
              "- /Catalog/Course/Footnote\n"
              "+ //Course[Credit = 3]/Footnote\n"
              "- /Catalog/Course/Sln\n";
          break;
      }
      break;
    case CorpusFamily::kSigmod:
      switch (rules) {
        case RuleFamily::kClosedWorld:
          text = "+ /SigmodRecord/Issue/Articles\n";
          break;
        case RuleFamily::kNeedle:
          text = "+ //Author\n";
          break;
        case RuleFamily::kGuarded:
          text = "+ /SigmodRecord/Issue[Scope = public]/Articles\n";
          break;
        case RuleFamily::kPredicateHeavy:
          text =
              "+ /SigmodRecord/Issue\n"
              "- //Article/Abstract\n"
              "+ //Article[InitPage = 1]/Abstract\n";
          break;
      }
      break;
    case CorpusFamily::kDeepNest:
      switch (rules) {
        case RuleFamily::kClosedWorld:
          text = "+ /Deep/Tree/Meta\n";
          break;
        case RuleFamily::kNeedle:
          text = "+ //Leaf\n";
          break;
        case RuleFamily::kGuarded:
          text = "+ /Deep/Tree[Key = open]/S\n";
          break;
        case RuleFamily::kPredicateHeavy:
          text =
              "+ /Deep/Tree\n"
              "- //S[Label = zzsecret]\n";
          break;
      }
      break;
    case CorpusFamily::kPredicateStorm:
      switch (rules) {
        case RuleFamily::kClosedWorld:
          text = "+ /Docket/Case/Body\n";
          break;
        case RuleFamily::kNeedle:
          text = "+ //Cite\n";
          break;
        case RuleFamily::kGuarded:
          text = "+ /Docket/Case[Verdict = grant]/Body\n";
          break;
        case RuleFamily::kPredicateHeavy:
          text =
              "+ /Docket/Case[Verdict = grant]/Body\n"
              "- //Para[Flag = hot]\n"
              "+ //Para[Flag = hot]/Cite\n";
          break;
      }
      break;
    case CorpusFamily::kFlatText:
      switch (rules) {
        case RuleFamily::kClosedWorld:
          text = "+ /Text/P\n";
          break;
        case RuleFamily::kNeedle:
          text = "+ //Note\n";
          break;
        case RuleFamily::kGuarded:
          text = "+ /Text[Lang = en]/P\n";
          break;
        case RuleFamily::kPredicateHeavy:
          text = "+ /Text/P\n- //P[K = d]\n";
          break;
      }
      break;
  }
  for (int i = 0; i < extra_absent_rules; ++i) {
    text += "+ //AbsentTag" + std::to_string(i) + "\n";
  }
  return text;
}

}  // namespace csxa::bench

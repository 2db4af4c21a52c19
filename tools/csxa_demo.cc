// csxa_demo — end-to-end demonstration of the paper's pipeline:
//
//   XML text --SaxParser--> flat post-order tree --index::Encode-->
//     Skip-index image
//     --SecureDocumentStore--> encrypted chunks on the untrusted terminal
//     --SecureFetcher/SoeDecryptor--> verified plaintext, fetched lazily
//     --DocumentNavigator--> SAX events
//     --pipeline::AuthorizedViewReader--> descend-vs-skip-vs-defer per the
//       evaluator's token analysis (subtrees proven inert are never
//       transferred; over-budget pending subtrees are skipped behind a
//       checkpoint and re-read only if granted)
//     --access::RuleEvaluator--> authorized pruned event stream
//     --pull loop / SerializingHandler--> authorized view, delivered
//
// With no arguments it runs the built-in sample (the paper's medical-folder
// example) verbosely; --selftest checks the produced view (with skipping
// on, off, and with the defer-everything budget) against the expected
// result and the tamper-detection path, exiting nonzero on any mismatch
// (this is the ctest smoke test).

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "common/clock.h"
#include "common/status.h"
#include "crypto/cipher_backend.h"
#include "crypto/secure_store.h"
#include "crypto/sha1.h"
#include "index/encoder.h"
#include "index/variants.h"
#include "server/document_service.h"
#include "xml/flat_tree.h"
#include "xml/stats.h"

namespace {

using namespace csxa;  // NOLINT

const char kSampleDocument[] = R"(<Folder>
  <Admin>
    <Name>Jane Doe</Name>
    <SSN>123-45-678</SSN>
    <Insurance>ACME Health</Insurance>
  </Admin>
  <MedActs>
    <Consult>
      <Date>2004-01-12</Date>
      <Diagnostic>flu</Diagnostic>
      <Prescription>rest</Prescription>
    </Consult>
    <Analysis>
      <Type>G3</Type>
      <Cholesterol>260</Cholesterol>
      <Comments>borderline</Comments>
    </Analysis>
    <Analysis>
      <Comments>ok</Comments>
      <Cholesterol>180</Cholesterol>
      <Type>G2</Type>
    </Analysis>
  </MedActs>
</Folder>)";

// The doctor sees the whole folder, except the administrative data (of
// which only the patient name reappears, by a more specific positive rule)
// and the comments of G3-typed analyses (a predicate-based denial). In the
// second Analysis the Type arrives *after* the Comments, so the evaluator
// must keep those comments pending until the predicate resolves.
const char kSampleRules[] = R"(# rule set of the running example
+ doctor: /Folder
- doctor: /Folder/Admin
+ doctor: /Folder/Admin/Name
- doctor: //Analysis[Type = G3]/Comments
+ doctor: //Prescription
# redundant: its node set is contained in "+ doctor: //Prescription"
+ doctor: /Folder/MedActs//Prescription
)";

const char kExpectedView[] =
    "<Folder><Admin><Name>Jane Doe</Name></Admin>"
    "<MedActs>"
    "<Consult><Date>2004-01-12</Date><Diagnostic>flu</Diagnostic>"
    "<Prescription>rest</Prescription></Consult>"
    "<Analysis><Type>G3</Type><Cholesterol>260</Cholesterol></Analysis>"
    "<Analysis><Comments>ok</Comments><Cholesterol>180</Cholesterol>"
    "<Type>G2</Type></Analysis>"
    "</MedActs></Folder>";

crypto::TripleDes::Key DemoKey() {
  crypto::TripleDes::Key key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0x42 + 7 * i);
  }
  return key;
}

struct Options {
  bool selftest = false;
  bool verbose = true;
  bool enable_skip = true;
  uint64_t defer_budget = UINT64_MAX;  ///< Pending-subtree buffer budget.
  std::string doc_path;
  std::string rules_path;
  std::string subject = "doctor";
  index::Variant variant = index::Variant::kTcsbr;
  crypto::ChunkLayout layout;
  crypto::CipherBackendKind backend = crypto::CipherBackendKind::k3Des;
};

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::InvalidArgument("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Publication of the demo document: without a shared digest cache, so
/// every serve below starts cold and reports its own full cost.
server::DocumentConfig DemoConfig(const Options& opt) {
  server::DocumentConfig cfg;
  cfg.variant = opt.variant;
  cfg.layout = opt.layout;
  cfg.key = DemoKey();
  cfg.shared_cache_capacity = 0;
  cfg.backend = opt.backend;
  return cfg;
}

/// Re-runs the fetch path against a lying terminal — a tampered copy of
/// the published store, attached as the document's transport; returns
/// true when the integrity check caught the modification.
bool TamperIsDetected(const std::string& xml,
                      const std::vector<access::AccessRule>& rules,
                      const Options& opt) {
  const server::DocumentConfig cfg = DemoConfig(opt);
  server::DocumentService service;
  if (!service.Publish("demo", xml, cfg).ok()) return false;
  auto doc = index::Encode(xml, cfg.variant);
  if (!doc.ok()) return false;
  auto store = crypto::SecureDocumentStore::Build(
      doc.value().bytes, cfg.key, cfg.layout, /*version=*/0, cfg.backend);
  if (!store.ok()) return false;
  store.value().TamperByte(doc.value().bytes.size() / 2, 0x40);
  auto lying = std::make_shared<crypto::SecureDocumentStore>(store.take());
  if (!service.AttachTransport("demo", std::move(lying)).ok()) return false;
  auto report =
      service.Serve("demo", rules, {/*skip=*/false, opt.defer_budget});
  return !report.ok() &&
         report.status().code() == StatusCode::kIntegrityError;
}

int Run(const Options& opt) {
  std::string xml = kSampleDocument;
  std::string rules_text = kSampleRules;
  if (!opt.doc_path.empty()) {
    auto r = ReadFile(opt.doc_path);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 2;
    }
    xml = r.take();
  }
  if (!opt.rules_path.empty()) {
    auto r = ReadFile(opt.rules_path);
    if (!r.ok()) {
      std::fprintf(stderr, "%s\n", r.status().ToString().c_str());
      return 2;
    }
    rules_text = r.take();
  }

  auto parsed_rules = access::ParseRuleList(rules_text);
  if (!parsed_rules.ok()) {
    std::fprintf(stderr, "rules: %s\n",
                 parsed_rules.status().ToString().c_str());
    return 2;
  }
  std::vector<access::AccessRule> all_rules = parsed_rules.take();
  std::vector<access::AccessRule> subject_rules =
      access::RulesForSubject(all_rules, opt.subject);
  size_t before = subject_rules.size();
  subject_rules = access::EliminateRedundantRules(std::move(subject_rules));

  if (opt.verbose) {
    std::printf("subject: %s\n", opt.subject.c_str());
    std::printf("rules (%zu, %zu eliminated as redundant):\n",
                subject_rules.size(), before - subject_rules.size());
    for (const auto& r : subject_rules) {
      std::printf("  %s\n", r.ToString().c_str());
    }
    auto tree = xml::FlatTree::Parse(xml);
    if (tree.ok()) {
      std::printf("document: %s\n",
                  xml::ComputeStats(tree.value()).ToString().c_str());
      std::printf("encoding sizes (Figure 8):\n");
      for (auto v :
           {index::Variant::kNc, index::Variant::kTc, index::Variant::kTcs,
            index::Variant::kTcsb, index::Variant::kTcsbr}) {
        auto rep = index::MeasureVariant(xml, v);
        if (rep.ok()) {
          std::printf("  %-6s %6llu bytes  (structure/text %.1f%%)\n",
                      index::VariantName(v),
                      static_cast<unsigned long long>(rep.value().total_bytes),
                      rep.value().StructTextPercent());
        }
      }
    }
  }

  server::DocumentService service;
  const Status published = service.Publish("demo", xml, DemoConfig(opt));
  if (!published.ok()) {
    std::fprintf(stderr, "session: %s\n", published.ToString().c_str());
    return 2;
  }
  const uint64_t serve_t0 = NowNs();
  auto result = service.Serve("demo", subject_rules,
                              {opt.enable_skip, opt.defer_budget});
  const uint64_t serve_ns = NowNs() - serve_t0;
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 result.status().ToString().c_str());
    return 2;
  }
  const pipeline::ServeReport& pr = result.value();

  if (opt.verbose) {
    auto mb_s = [](uint64_t bytes, uint64_t ns) {
      return ns == 0 ? 0.0 : static_cast<double>(bytes) * 1e3 /
                                 static_cast<double>(ns);
    };
    std::printf("\nauthorized view:\n%s\n", pr.view.c_str());
    std::printf("\ncost model:\n");
    std::printf("  encoded document     %8llu bytes\n",
                static_cast<unsigned long long>(pr.encoded_bytes));
    std::printf("  terminal->SOE wire   %8llu bytes in %llu batched "
                "request(s), %llu segment(s)\n",
                static_cast<unsigned long long>(pr.wire_bytes),
                static_cast<unsigned long long>(pr.requests),
                static_cast<unsigned long long>(pr.segments));
    std::printf("  fetch planner        %8llu gap fragment(s) bridged, "
                "%llu chunk read(s) served bare (digest cache: %llu "
                "record(s), %llu hit(s), %llu eviction(s))\n",
                static_cast<unsigned long long>(pr.gap_fragments_bridged),
                static_cast<unsigned long long>(pr.bare_chunk_reads),
                static_cast<unsigned long long>(pr.digest_cache.records),
                static_cast<unsigned long long>(pr.digest_cache.bare_hits),
                static_cast<unsigned long long>(pr.digest_cache.evictions));
    std::printf("  integrity material   %8llu tree hash(es) + %llu digest "
                "bytes shipped\n",
                static_cast<unsigned long long>(pr.proof_hashes_shipped),
                static_cast<unsigned long long>(pr.digest_bytes_shipped));
    std::string cipher = crypto::CipherBackendKindName(opt.backend);
    if (crypto::CipherBackendHardwareAccelerated(opt.backend)) cipher += ", hw";
    if (opt.backend == crypto::CipherBackendKind::k3Des) {
      cipher += std::string(", ") + crypto::TripleDesKernelName() +
                " / short runs " + crypto::TripleDesShortKernelName();
    }
    std::printf("  decrypted in SOE     %8llu bytes (%s, %.1f MB/s)\n",
                static_cast<unsigned long long>(pr.soe.bytes_decrypted),
                cipher.c_str(),
                mb_s(pr.soe.bytes_decrypted + pr.soe.digest_bytes_decrypted,
                     pr.soe.decrypt_ns));
    std::printf("  hashed in SOE        %8llu bytes (%s, %.1f MB/s)\n",
                static_cast<unsigned long long>(pr.soe.bytes_hashed),
                crypto::Sha1::ImplementationName(),
                mb_s(pr.soe.bytes_hashed, pr.soe.hash_ns));
    std::printf("  subtrees skipped     %8llu (%llu encoded bytes never "
                "fetched; %llu oracle queries)\n",
                static_cast<unsigned long long>(pr.drive.skips),
                static_cast<unsigned long long>(pr.drive.skipped_bits / 8),
                static_cast<unsigned long long>(pr.eval.skip_checks));
    std::printf("  events in/out/pruned %llu/%llu/%llu, rule hits %llu, "
                "pending predicates %llu, peak buffered %zu events "
                "(%llu bytes)\n",
                static_cast<unsigned long long>(pr.eval.events_in),
                static_cast<unsigned long long>(pr.eval.events_emitted),
                static_cast<unsigned long long>(pr.eval.events_pruned),
                static_cast<unsigned long long>(pr.eval.rule_hits),
                static_cast<unsigned long long>(pr.eval.predicates_spawned),
                pr.eval.peak_buffered,
                static_cast<unsigned long long>(pr.eval.peak_buffered_bytes));
    std::printf("  subtrees deferred    %8llu (granted %llu, denied %llu; "
                "%llu bytes re-pulled of %llu re-decoded)\n",
                static_cast<unsigned long long>(pr.drive.deferrals),
                static_cast<unsigned long long>(pr.eval.deferrals_granted),
                static_cast<unsigned long long>(pr.eval.deferrals_denied),
                static_cast<unsigned long long>(pr.drive.reread_fetched_bytes),
                static_cast<unsigned long long>(pr.drive.reread_bits / 8));
    // The serve's wall clock and the SOE's stage timers inside it; the
    // remainder is session setup, terminal reads, navigation, evaluation
    // and serialization.
    const uint64_t staged = pr.soe.decrypt_ns + pr.soe.hash_ns;
    const uint64_t rest = serve_ns > staged ? serve_ns - staged : 0;
    std::printf("  serve wall time      %8.3f ms (decrypt %.3f ms, hash "
                "%.3f ms, read+navigate+evaluate+serialize %.3f ms)\n",
                static_cast<double>(serve_ns) / 1e6,
                static_cast<double>(pr.soe.decrypt_ns) / 1e6,
                static_cast<double>(pr.soe.hash_ns) / 1e6,
                static_cast<double>(rest) / 1e6);
  }

  if (opt.selftest) {
    int rc = 0;
    // The skip-enabled view must be byte-identical to full streaming,
    // whatever the document and rules.
    auto full = service.Serve("demo", subject_rules,
                              {/*skip=*/false, opt.defer_budget});
    if (!full.ok()) {
      std::fprintf(stderr, "selftest: full-streaming run failed: %s\n",
                   full.status().ToString().c_str());
      rc = 1;
    } else if (full.value().view != pr.view) {
      std::fprintf(stderr,
                   "selftest: skip-enabled view diverges from full "
                   "streaming\n  skip: %s\n  full: %s\n",
                   pr.view.c_str(), full.value().view.c_str());
      rc = 1;
    }
    // So must the most aggressive deferral strategy (budget 0: every
    // pending subtree that can be safely skipped is skipped and re-read
    // only on grant).
    auto defer = service.Serve("demo", subject_rules,
                               {/*skip=*/true, /*budget=*/0});
    if (!defer.ok()) {
      std::fprintf(stderr, "selftest: deferred-mode run failed: %s\n",
                   defer.status().ToString().c_str());
      rc = 1;
    } else if (defer.value().view != pr.view) {
      std::fprintf(stderr,
                   "selftest: deferred-mode view diverges\n  defer: %s\n"
                   "  skip:  %s\n",
                   defer.value().view.c_str(), pr.view.c_str());
      rc = 1;
    }
    if (opt.doc_path.empty() && opt.rules_path.empty()) {
      if (pr.view != kExpectedView) {
        std::fprintf(stderr,
                     "selftest: authorized view mismatch\n  got:      %s\n"
                     "  expected: %s\n",
                     pr.view.c_str(), kExpectedView);
        rc = 1;
      }
      if (before - subject_rules.size() != 1) {
        std::fprintf(stderr, "selftest: expected 1 redundant rule, got %zu\n",
                     before - subject_rules.size());
        rc = 1;
      }
    }
    if (!TamperIsDetected(xml, subject_rules, opt)) {
      std::fprintf(stderr, "selftest: tampering was not detected\n");
      rc = 1;
    }
    if (rc == 0) std::printf("selftest OK\n");
    return rc;
  }
  return 0;
}

bool ParseUint32(const char* text, uint32_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long v = std::strtoul(text, &end, 10);
  if (errno != 0 || *end != '\0' || v > UINT32_MAX) return false;
  *out = static_cast<uint32_t>(v);
  return true;
}

bool ParseUint64(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--selftest") {
      opt.selftest = true;
      opt.verbose = false;
    } else if (arg == "--no-skip") {
      opt.enable_skip = false;
    } else if (arg == "--defer-budget") {
      const char* v = next();
      if (!ParseUint64(v, &opt.defer_budget)) {
        std::fprintf(stderr, "--defer-budget needs a byte count, got %s\n",
                     v == nullptr ? "(nothing)" : v);
        return 2;
      }
    } else if (arg == "--doc") {
      if (const char* v = next()) opt.doc_path = v;
    } else if (arg == "--rules") {
      if (const char* v = next()) opt.rules_path = v;
    } else if (arg == "--subject") {
      if (const char* v = next()) opt.subject = v;
    } else if (arg == "--variant") {
      const char* v = next();
      if (v != nullptr) {
        std::string name = v;
        if (name == "tc") opt.variant = csxa::index::Variant::kTc;
        else if (name == "tcs") opt.variant = csxa::index::Variant::kTcs;
        else if (name == "tcsb") opt.variant = csxa::index::Variant::kTcsb;
        else if (name == "tcsbr") opt.variant = csxa::index::Variant::kTcsbr;
        else {
          std::fprintf(stderr, "unknown variant %s\n", v);
          return 2;
        }
      }
    } else if (arg == "--backend") {
      const char* v = next();
      auto kind = csxa::crypto::ParseCipherBackendName(
          v == nullptr ? "" : v);
      if (!kind.ok()) {
        std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
        return 2;
      }
      opt.backend = kind.value();
    } else if (arg == "--chunk" || arg == "--fragment") {
      const char* v = next();
      uint32_t* field = arg == "--chunk" ? &opt.layout.chunk_size
                                         : &opt.layout.fragment_size;
      if (!ParseUint32(v, field)) {
        std::fprintf(stderr, "%s needs a positive integer, got %s\n",
                     arg.c_str(), v == nullptr ? "(nothing)" : v);
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: csxa_demo [--selftest] [--doc FILE] [--rules FILE]\n"
          "                 [--subject NAME] [--variant tc|tcs|tcsb|tcsbr]\n"
          "                 [--chunk BYTES] [--fragment BYTES] [--no-skip]\n"
          "                 [--defer-budget BYTES]\n"
          "                 [--backend 3des|aes]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument %s (try --help)\n", arg.c_str());
      return 2;
    }
  }
  return Run(opt);
}

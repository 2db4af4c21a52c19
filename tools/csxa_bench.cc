// csxa_bench — reproduces the shape of the paper's Figure 8 experiment:
// for each encoding variant (NC, TC, TCS, TCSB, TCSBR) and a set of
// access-control scenarios with growing rule sets, measure what crosses
// the terminal→SOE boundary (wire bytes), what the SOE decrypts and
// hashes, and how much the evaluator-driven skip navigation prunes —
// while asserting every variant serves the byte-identical authorized view.
//
// Results are written as JSON (default BENCH_PR9.json) so successive PRs
// can diff the deterministic counters; service-level time (throughput,
// latency, per-layer cost) is perfbench's to measure. The run exits
// nonzero if any view diverges, if the Skip-index variants (TCSB/TCSBR)
// fail to *strictly* reduce transferred and decrypted bytes against TCS
// on the pruning scenarios — the paper's headline claim — if the batched
// fetch planner regresses (closed-world TC must stay within 40 round
// trips and under NC's wire bytes), if any skip-enabled serve pays more
// wire than full streaming of the same variant plus the per-chunk digest
// slack (the PR 5 cost-model gate: skipping must pay for itself), if the
// warm_cache section (second serve of one document through a shared
// DocumentService cache) re-ships any tree hash or fails to land under
// 60% of the cold serve's wire bytes, or if the deferred-mode section
// (pending predicate guarding the document's largest subtrees) breaches
// the pending-buffer budget: peak buffered bytes must stay under it while
// the authorized view stays byte-identical.
//
// A corpus-scale section rides along (PR 6). "corpus" runs the seeded
// generator over every family and gates its determinism (same spec →
// byte-identical corpus) and the rule-set-size invariance (absent-tag
// rules grow the automata, the view must not change); its counters are
// exactly reproducible, so the regression script diffs them bit-for-bit.
//
// A "backends" section rides along (PR 7). The scenario matrix serves
// under one cipher backend (--backend; position-mixed 3DES by default for
// paper fidelity); this section then gates the property that makes the
// backend a free perf axis: every backend ("3des", "aes", and the forced
// portable-AES fallback) must produce byte-identical authorized views
// across the corpus family × variant × rule-family matrix, and every
// store-level attack (flipped ciphertext byte, swapped blocks, transposed
// chunk digests, replayed stale version) must still fail closed as a
// clean IntegrityError on every backend. Alongside the exact gates it
// publishes a per-backend closed_world NC serve — the decrypt-bound
// workload — whose AES-on-AES-NI serve_mb_s is gated against the PR 7
// target (≥ 9 MB/s, 10× the BENCH_PR6 baseline) on full runs.
//
// Two transport sections ride along (PR 9), both running the serve over
// a real TCP terminal behind the deterministic FaultProxy.
// "latency_sweep" prices skip navigation across a slow link (0/1/10 ms
// RTT over a smartcard-class bandwidth cap) and gates that TCSBR with
// skipping beats stream-all on wire bytes AND wall clock at every RTT
// point. "fault_matrix" runs every injectable fault x cipher backend x
// {cold, warm} shared cache and gates the transport contract: survivable
// weather ends in a byte-identical view after typed retries, tampering
// ends in a terminal IntegrityError — never a divergent view, never an
// uncontracted error class.
//
// Every serve yields a pipeline::ServeReport; one table (kCounters) maps
// JSON keys to its fields, and every section writes through one scoped
// JSON writer, so a section that stops early still leaves a well-formed
// file with "checks_passed": false. The inputs are fixed: the hand-built
// hospital document (12 folders, 4 under --quick; the strict pruning gates
// are calibrated to its shape) on 1 KiB chunks of 64 B fragments. Generated
// corpora are served by the backends section and by csxa_stored --families.
//
// Usage: csxa_bench [--quick] [--backend 3des|aes] [--out FILE]

#include <algorithm>
#include <concepts>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "access/access_rule.h"
#include "bench/corpus.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "access/rule_evaluator.h"
#include "common/status.h"
#include "crypto/cipher_backend.h"
#include "crypto/secure_store.h"
#include "index/secure_fetcher.h"
#include "index/variants.h"
#include "net/fault_proxy.h"
#include "net/remote_source.h"
#include "net/terminal_server.h"
#include "server/document_service.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace {

using namespace csxa;  // NOLINT
using pipeline::ServeReport;
using ull = unsigned long long;

/// One object or array of the output, closed by its destructor: a section
/// that returns early still leaves well-formed JSON. Members are written
/// in order, and a nested scope must close before its parent writes again.
/// Members of an array take an empty key. Nested containers start on
/// their own indented line; scalars run on.
class JsonScope {
 public:
  /// The document's root object, appended to `out`.
  explicit JsonScope(std::string* out) : JsonScope(out, 0, '}') {
    out->push_back('{');
  }
  JsonScope(const JsonScope&) = delete;
  JsonScope& operator=(const JsonScope&) = delete;
  ~JsonScope() {
    if (nested_) NewLine(depth_);
    out_->push_back(close_);
  }

  JsonScope Object(std::string_view key = {}) { return Open(key, '{', '}'); }
  JsonScope Array(std::string_view key = {}) { return Open(key, '[', ']'); }

  void Field(std::string_view key, std::string_view v) {
    Member(key, /*container=*/false);
    String(v);
  }
  void Field(std::string_view key, const char* v) {
    Field(key, std::string_view(v));
  }
  void Field(std::string_view key, bool v) {
    Member(key, /*container=*/false);
    *out_ += v ? "true" : "false";
  }
  /// One decimal: the bench's rates.
  void Field(std::string_view key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.1f", v);
    Member(key, /*container=*/false);
    *out_ += buf;
  }
  template <std::integral T>
  void Field(std::string_view key, T v) {
    Member(key, /*container=*/false);
    *out_ += std::to_string(v);
  }

 private:
  JsonScope(std::string* out, int depth, char close)
      : out_(out), depth_(depth), close_(close) {}

  JsonScope Open(std::string_view key, char open, char close) {
    Member(key, /*container=*/true);
    out_->push_back(open);
    return JsonScope(out_, depth_ + 1, close);
  }
  void Member(std::string_view key, bool container) {
    if (!first_) out_->push_back(',');
    if (container) {
      nested_ = true;
      NewLine(depth_ + 1);
    } else if (!first_) {
      out_->push_back(' ');
    }
    first_ = false;
    if (key.empty()) return;
    String(key);
    *out_ += ": ";
  }
  void NewLine(int depth) {
    out_->push_back('\n');
    out_->append(2 * static_cast<size_t>(depth), ' ');
  }
  void String(std::string_view s) {
    out_->push_back('"');
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_->push_back('\\');
        out_->push_back(c);
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        *out_ += buf;
      } else {
        out_->push_back(c);
      }
    }
    out_->push_back('"');
  }

  std::string* out_;
  int depth_;
  char close_;
  bool first_ = true;
  bool nested_ = false;  ///< A container member broke the line.
};

/// The run's verdict, written last as "checks_passed".
bool checks_passed = true;

/// Prints "where: message" to stderr and fails the run.
void VReport(const std::string& where, const char* fmt, va_list args) {
  std::fprintf(stderr, "%s: ", where.c_str());
  std::vfprintf(stderr, fmt, args);
  std::fputc('\n', stderr);
  checks_passed = false;
}

/// Every in-bench gate: when `cond` is false, prints "where: message" and
/// fails the run. Returns `cond`.
[[gnu::format(printf, 3, 4)]] bool Check(bool cond, const std::string& where,
                                         const char* fmt, ...) {
  if (cond) return true;
  va_list args;
  va_start(args, fmt);
  VReport(where, fmt, args);
  va_end(args);
  return false;
}

/// A serve or setup step that could not run: fails the run, and the
/// section stops there.
[[gnu::format(printf, 2, 3)]] void Fail(const std::string& where,
                                        const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  VReport(where, fmt, args);
  va_end(args);
}
void Fail(const std::string& where, const Status& status) {
  Fail(where, "%s", status.ToString().c_str());
}

/// JSON key → ServeReport field, for every counter a section publishes.
struct Counter {
  const char* key;
  uint64_t (*get)(const ServeReport&);
};
constexpr Counter kCounters[] = {
    {"encoded_bytes", [](const ServeReport& r) { return r.encoded_bytes; }},
    {"wire_bytes", [](const ServeReport& r) { return r.wire_bytes; }},
    {"bytes_fetched", [](const ServeReport& r) { return r.bytes_fetched; }},
    {"bytes_decrypted",
     [](const ServeReport& r) { return r.soe.bytes_decrypted; }},
    {"bytes_hashed", [](const ServeReport& r) { return r.soe.bytes_hashed; }},
    {"requests", [](const ServeReport& r) { return r.requests; }},
    {"segments", [](const ServeReport& r) { return r.segments; }},
    {"bare_chunk_reads",
     [](const ServeReport& r) { return r.bare_chunk_reads; }},
    {"proof_hashes_shipped",
     [](const ServeReport& r) { return r.proof_hashes_shipped; }},
    {"digest_bytes_shipped",
     [](const ServeReport& r) { return r.digest_bytes_shipped; }},
    {"gap_fragments_bridged",
     [](const ServeReport& r) { return r.gap_fragments_bridged; }},
    {"subtree_skips", [](const ServeReport& r) { return r.drive.skips; }},
    {"skipped_encoded_bytes",
     [](const ServeReport& r) { return r.drive.skipped_bits / 8; }},
    {"events_in", [](const ServeReport& r) { return r.eval.events_in; }},
    {"peak_buffered",
     [](const ServeReport& r) { return r.eval.peak_buffered; }},
    {"peak_buffered_bytes",
     [](const ServeReport& r) { return r.eval.peak_buffered_bytes; }},
    {"deferrals", [](const ServeReport& r) { return r.drive.deferrals; }},
    {"deferrals_granted",
     [](const ServeReport& r) { return r.eval.deferrals_granted; }},
    {"deferrals_denied",
     [](const ServeReport& r) { return r.eval.deferrals_denied; }},
    {"rereads", [](const ServeReport& r) { return r.drive.rereads; }},
    {"reread_bytes",
     [](const ServeReport& r) { return r.drive.reread_fetched_bytes; }},
    {"reread_decoded_bytes",
     [](const ServeReport& r) { return r.drive.reread_bits / 8; }},
    {"retries", [](const ServeReport& r) { return r.retries; }},
};

/// Writes the named counters of `r`, in the order given.
void WriteCounters(JsonScope* out, const ServeReport& r,
                   std::initializer_list<const char*> keys) {
  for (const char* key : keys) {
    const Counter* c = std::find_if(
        std::begin(kCounters), std::end(kCounters), [key](const Counter& e) {
          return std::strcmp(e.key, key) == 0;
        });
    if (c == std::end(kCounters)) {
      std::fprintf(stderr, "csxa_bench: no counter %s\n", key);
      std::abort();
    }
    out->Field(key, c->get(r));
  }
}

crypto::TripleDes::Key BenchKey() {
  crypto::TripleDes::Key key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xc3 ^ (i * 29));
  }
  return key;
}

std::string Payload(const char* stem, int i, size_t n) {
  std::string s = std::string(stem) + "-" + std::to_string(i) + "-";
  while (s.size() < n) s += "loremipsum";
  s.resize(n);
  return s;
}

/// Synthetic hospital folder set in the shape of the paper's running
/// example (Table 2's hospital dataset, scaled down): bulky administrative
/// subtrees that most rule sets deny, medical acts with the interesting
/// tags, and a rare Protocol tag in every eighth consult.
std::string MakeDocument(int folders, int consults, int analyses) {
  std::string xml = "<Hospital>";
  for (int f = 0; f < folders; ++f) {
    xml += "<Folder>";
    xml += "<Admin>";
    xml += "<Name>Patient-" + std::to_string(f) + "</Name>";
    xml += "<SSN>" + Payload("ssn", f, 24) + "</SSN>";
    xml += "<Insurance>" + Payload("ins", f, 120) + "</Insurance>";
    xml += "<Billing>";
    for (int b = 0; b < 4; ++b) {
      xml += "<Item>" + Payload("bill", f * 10 + b, 60) + "</Item>";
    }
    xml += "</Billing>";
    xml += "</Admin>";
    xml += "<MedActs>";
    for (int c = 0; c < consults; ++c) {
      xml += "<Consult>";
      xml += "<Date>2004-0" + std::to_string(1 + c % 9) + "-12</Date>";
      xml += "<Diagnostic>" + Payload("diag", c, 48) + "</Diagnostic>";
      if ((f * consults + c) % 8 == 0) {
        xml += "<Protocol>" + Payload("proto", c, 32) + "</Protocol>";
      }
      xml += "<Prescription>" + Payload("rx", f * 100 + c, 40) +
             "</Prescription>";
      xml += "</Consult>";
    }
    for (int a = 0; a < analyses; ++a) {
      xml += "<Analysis>";
      // Half the analyses reveal Type after Comments: the evaluator must
      // buffer those comments as pending parts.
      std::string type = (f + a) % 3 == 0 ? "G3" : "G2";
      std::string comments =
          "<Comments>" + Payload("obs", f * 100 + a, 64) + "</Comments>";
      std::string typed = "<Type>" + type + "</Type>";
      std::string chol =
          "<Cholesterol>" + std::to_string(150 + 10 * a) + "</Cholesterol>";
      xml += a % 2 == 0 ? typed + chol + comments : comments + chol + typed;
      xml += "</Analysis>";
    }
    xml += "</MedActs>";
    // Clearance *after* the bulky MedActs: a predicate guarding MedActs on
    // it stays pending across the whole subtree (the deferral workload).
    xml += std::string("<Clearance>") + (f % 2 ? "closed" : "open") +
           "</Clearance>";
    xml += "</Folder>";
  }
  xml += "</Hospital>";
  return xml;
}

/// What every section serves from, fixed by the command line.
struct Bench {
  bool quick = false;
  int folders = 12;  ///< Hospital folders; 4 under --quick.
  crypto::ChunkLayout layout;
  crypto::CipherBackendKind backend = crypto::CipherBackendKind::k3Des;
  std::string xml;  ///< MakeDocument(folders, 3, 4).
};

struct Scenario {
  std::string name;
  std::string rules_text;
  /// Scenarios where the descendant-tag bitmap is what enables pruning:
  /// TCSB/TCSBR must strictly reduce wire + decrypted bytes against TCS.
  bool bitmap_pruning = false;
  /// Scenarios where size fields alone already prune: TCS must strictly
  /// reduce wire bytes against TC.
  bool size_pruning = false;
};

std::vector<Scenario> Scenarios() {
  std::vector<Scenario> s;
  // Closed world: only the medical acts are granted, by child-axis rules.
  // No positive token survives into an Admin subtree, so size fields alone
  // (TCS) suffice to skip it.
  s.push_back({"closed_world",
               "+ /Hospital/Folder/MedActs\n",
               /*bitmap_pruning=*/false, /*size_pruning=*/true});
  // Needle: one descendant-axis grant. The //Prescription token is alive
  // everywhere, so TCS cannot prune anything — only the descendant-tag
  // bitmap proves Admin and Analysis subtrees inert.
  s.push_back({"needle",
               "+ //Prescription\n",
               /*bitmap_pruning=*/true, /*size_pruning=*/false});
  // A pending predicate guarding each folder's largest subtree, with the
  // evidence arriving only after it: the pending-part workload the
  // deferral strategy (skip-now-reread-later) exists for. Run buffered
  // here; the deferred_mode section below compares strategies.
  s.push_back({"deferred_guard",
               "+ /Hospital/Folder[Clearance = open]/MedActs\n",
               /*bitmap_pruning=*/false, /*size_pruning=*/false});
  // The running example: structure preservation, a more specific positive
  // rule inside a denial, and a comparison predicate that buffers pending
  // comments. Skipping must coexist with all of it.
  s.push_back({"predicate",
               "+ /Hospital/Folder\n"
               "- /Hospital/Folder/Admin\n"
               "+ /Hospital/Folder/Admin/Name\n"
               "- //Analysis[Type = G3]/Comments\n",
               /*bitmap_pruning=*/false, /*size_pruning=*/false});
  // Growing descendant-axis rule sets (the X axis of the paper's rule-set
  // complexity experiment): one live needle plus R-1 rules over tags that
  // are rare or absent. The bitmap keeps pruning whatever R is; TCS
  // streams everything.
  for (int r : {4, 16}) {
    std::string rules = "+ //Prescription\n+ //Protocol\n";
    for (int i = 2; i < r; ++i) {
      rules += "+ //Absent" + std::to_string(i) + "\n";
    }
    s.push_back({"scaling_" + std::to_string(r), rules,
                 /*bitmap_pruning=*/true, /*size_pruning=*/false});
  }
  return s;
}

/// Every variant, in enum order, so a serve list indexes by Variant.
constexpr index::Variant kVariants[] = {
    index::Variant::kNc, index::Variant::kTc, index::Variant::kTcs,
    index::Variant::kTcsb, index::Variant::kTcsbr};

/// Stream-all serve of an NC image: with no structure index nothing can
/// be skipped, so the whole ciphertext crosses the wire from `source` (the
/// store itself, or a link to it) and the SOE SAX-filters the plaintext.
/// `store` describes the image's layout and sizes. The report carries the
/// fetcher's, the decryptor's and the evaluator's counters; with no
/// navigator, `drive` stays zero.
Result<ServeReport> ServeStreamAll(const crypto::BatchSource* source,
                                   const crypto::SecureDocumentStore& store,
                                   const std::vector<access::AccessRule>& rules,
                                   crypto::CipherBackendKind backend,
                                   const index::PlannerOptions& planner) {
  crypto::SoeDecryptor soe(BenchKey(), store.layout(), store.plaintext_size(),
                           store.chunk_count(), /*expected_version=*/0,
                           crypto::SoeDecryptor::kDefaultDigestCacheCapacity,
                           /*shared_cache=*/nullptr, backend);
  index::SecureFetcher fetcher(source, store.layout(), store.plaintext_size(),
                               store.ciphertext().size(), &soe, planner);
  CSXA_RETURN_NOT_OK(fetcher.Ensure(0, fetcher.size()));
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules, &ser);
  CSXA_RETURN_NOT_OK(xml::SaxParser::Parse(
      common::AsChars(fetcher.verified_view().data(), fetcher.size()), &eval));
  CSXA_RETURN_NOT_OK(eval.Finish());
  ServeReport r;
  r.view = ser.output();
  r.eval = eval.stats();
  r.encoded_bytes = fetcher.size();
  r.wire_bytes = fetcher.wire_bytes();
  r.bytes_fetched = fetcher.bytes_fetched();
  r.requests = fetcher.requests();
  r.segments = fetcher.segments();
  r.bare_chunk_reads = fetcher.bare_chunk_reads();
  r.proof_hashes_shipped = fetcher.proof_hashes_shipped();
  r.digest_bytes_shipped = fetcher.digest_bytes_shipped();
  r.gap_fragments_bridged = fetcher.planner_stats().gap_fragments_bridged;
  r.retries = fetcher.retries();
  r.reconnects = fetcher.reconnects();
  r.soe = soe.counters();
  return r;
}

/// The NC image: the raw XML text encrypted as-is, no structure index.
Result<crypto::SecureDocumentStore> BuildNcStore(
    const std::string& xml, const crypto::ChunkLayout& layout,
    crypto::CipherBackendKind backend) {
  std::vector<uint8_t> bytes(xml.begin(), xml.end());
  return crypto::SecureDocumentStore::Build(bytes, BenchKey(), layout,
                                            /*version=*/0, backend);
}

/// Publication for the Figure 8 matrices: no shared digest cache, so every
/// serve starts cold with a private one and the cells stay comparable.
server::DocumentConfig ColdConfig(index::Variant variant,
                                  const crypto::ChunkLayout& layout,
                                  crypto::CipherBackendKind backend) {
  server::DocumentConfig cfg;
  cfg.variant = variant;
  cfg.layout = layout;
  cfg.key = BenchKey();
  cfg.shared_cache_capacity = 0;
  cfg.backend = backend;
  return cfg;
}

/// The skip-enabled serve of `xml` as `variant` (NC: stream-all from the
/// in-process store), checked against full streaming of the same image.
/// `wire_bytes_full`, if set, receives the full-streaming wire bytes.
Result<ServeReport> RunVariant(const std::string& xml, index::Variant variant,
                               const std::vector<access::AccessRule>& rules,
                               const crypto::ChunkLayout& layout,
                               crypto::CipherBackendKind backend,
                               uint64_t* wire_bytes_full = nullptr) {
  if (variant == index::Variant::kNc) {
    CSXA_ASSIGN_OR_RETURN(crypto::SecureDocumentStore store,
                          BuildNcStore(xml, layout, backend));
    CSXA_ASSIGN_OR_RETURN(
        ServeReport report,
        ServeStreamAll(&store, store, rules, backend, index::PlannerOptions()));
    if (wire_bytes_full != nullptr) *wire_bytes_full = report.wire_bytes;
    return report;
  }
  server::DocumentService service;
  CSXA_RETURN_NOT_OK(
      service.Publish("bench", xml, ColdConfig(variant, layout, backend)));
  CSXA_ASSIGN_OR_RETURN(
      ServeReport report,
      service.Serve("bench", rules, {/*skip=*/true, UINT64_MAX}));
  CSXA_ASSIGN_OR_RETURN(
      ServeReport full,
      service.Serve("bench", rules, {/*skip=*/false, UINT64_MAX}));
  if (full.view != report.view) {
    return Status::Internal("skip-enabled view diverges from full streaming");
  }
  if (wire_bytes_full != nullptr) *wire_bytes_full = full.wire_bytes;
  return report;
}

/// The single-session reference view: plaintext SAX pass, no crypto.
Result<std::string> DirectView(const std::string& xml,
                               const std::vector<access::AccessRule>& rules) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules, &ser);
  CSXA_RETURN_NOT_OK(xml::SaxParser::Parse(xml, &eval));
  CSXA_RETURN_NOT_OK(eval.Finish());
  return ser.output();
}

/// The run's fixed inputs.
void WriteConfig(const Bench& bench, const char* name, JsonScope* root) {
  JsonScope out = root->Object(name);
  out.Field("source", "hospital_builtin");
  out.Field("folders", bench.folders);
  out.Field("document_bytes", bench.xml.size());
  out.Field("chunk_size", bench.layout.chunk_size);
  out.Field("fragment_size", bench.layout.fragment_size);
  out.Field("backend", crypto::CipherBackendKindName(bench.backend));
  out.Field("backend_hardware",
            crypto::CipherBackendHardwareAccelerated(bench.backend));
}

/// The Figure 8 matrix: every scenario × variant on the hospital
/// document, gated on the paper's claim that index metadata pays for
/// itself.
void RunScenarios(const Bench& bench, const char* name, JsonScope* root) {
  JsonScope out = root->Array(name);
  // Skip-mode cost sanity, whole matrix: a skip-enabled serve may
  // never pay more wire than full streaming of the same variant beyond
  // the per-chunk digest slack — the planner's proof-aware hole filling
  // and stream-all fallback exist to guarantee it. (Full streaming ships
  // one encrypted digest per chunk too, but chunk-touch order can shift
  // which serves trim them, hence the slack — sized to the backend's
  // digest ciphertext, 24 bytes for 3DES and 32 for AES.)
  const uint64_t digest_bytes = crypto::DigestCipherBytes(
      crypto::CipherBackendBlockSize(bench.backend));
  const uint64_t chunk = bench.layout.chunk_size;
  for (const Scenario& sc : Scenarios()) {
    auto parsed = access::ParseRuleList(sc.rules_text);
    if (!parsed.ok()) {
      return Fail(sc.name, "bad rules: %s",
                  parsed.status().ToString().c_str());
    }
    const std::vector<access::AccessRule> rules = parsed.take();
    std::vector<ServeReport> runs;  // Indexed by Variant.
    std::vector<uint64_t> wire_full;
    for (index::Variant v : kVariants) {
      uint64_t full = 0;
      auto run = RunVariant(bench.xml, v, rules, bench.layout, bench.backend,
                            &full);
      if (!run.ok()) return Fail(sc.name + "/" + VariantName(v), run.status());
      runs.push_back(run.take());
      wire_full.push_back(full);
    }
    auto at = [&runs](index::Variant v) -> const ServeReport& {
      return runs[static_cast<size_t>(v)];
    };
    const std::string& reference = at(index::Variant::kNc).view;

    JsonScope row = out.Object();
    row.Field("name", sc.name);
    row.Field("rules", rules.size());
    row.Field("view_bytes", reference.size());
    row.Field("bitmap_pruning", sc.bitmap_pruning);
    JsonScope cells = row.Array("variants");
    for (index::Variant v : kVariants) {
      const ServeReport& run = at(v);
      const std::string where = sc.name + "/" + VariantName(v);
      const bool matches = Check(run.view == reference, where,
                                 "authorized view diverges from NC");
      JsonScope cell = cells.Object();
      cell.Field("variant", VariantName(v));
      WriteCounters(&cell, run,
                    {"encoded_bytes", "wire_bytes", "bytes_fetched",
                     "bytes_decrypted", "bytes_hashed", "requests", "segments",
                     "bare_chunk_reads", "proof_hashes_shipped",
                     "digest_bytes_shipped", "gap_fragments_bridged",
                     "subtree_skips", "skipped_encoded_bytes", "events_in",
                     "peak_buffered", "peak_buffered_bytes", "deferrals",
                     "rereads", "reread_bytes", "reread_decoded_bytes"});
      const uint64_t full = wire_full[static_cast<size_t>(v)];
      cell.Field("wire_bytes_full_stream", full);
      cell.Field("view_matches_reference", matches);

      const uint64_t slack =
          (run.encoded_bytes + chunk - 1) / chunk * digest_bytes;
      Check(run.wire_bytes <= full + slack, where,
            "skip-mode wire %llu exceeds full streaming %llu + %llu slack "
            "(cost-model inversion)",
            ull(run.wire_bytes), ull(full), ull(slack));
    }

    // The paper's claim, enforced: index metadata must pay for itself.
    const ServeReport& tc = at(index::Variant::kTc);
    const ServeReport& tcs = at(index::Variant::kTcs);
    for (index::Variant v : {index::Variant::kTcsb, index::Variant::kTcsbr}) {
      const ServeReport& rich = at(v);
      Check(!sc.bitmap_pruning ||
                (rich.wire_bytes < tcs.wire_bytes &&
                 rich.soe.bytes_decrypted < tcs.soe.bytes_decrypted),
            sc.name + "/" + VariantName(v),
            "expected strictly fewer wire/decrypted bytes than TCS (wire "
            "%llu vs %llu, decrypted %llu vs %llu)",
            ull(rich.wire_bytes), ull(tcs.wire_bytes),
            ull(rich.soe.bytes_decrypted), ull(tcs.soe.bytes_decrypted));
    }
    Check(!sc.size_pruning || tcs.wire_bytes < tc.wire_bytes, sc.name,
          "expected TCS to transfer strictly less than TC (%llu vs %llu)",
          ull(tcs.wire_bytes), ull(tc.wire_bytes));
    // Batched-fetch gate: the integrity protocol must not invert
    // the cost model. TC — which streams everything — must stay within a
    // handful of coalesced round trips and under raw NC's wire bytes
    // (proofs amortized per chunk, not per request).
    const ServeReport& nc = at(index::Variant::kNc);
    Check(sc.name != "closed_world" ||
              (tc.requests <= 40 && tc.wire_bytes < nc.wire_bytes),
          sc.name, "batched fetch regressed on TC (%llu requests, wire %llu "
          "vs NC %llu)",
          ull(tc.requests), ull(tc.wire_bytes), ull(nc.wire_bytes));
  }
}

/// The adversarial pending-part workload for the deferred-mode section: a
/// few folders whose dominating MedActs subtree is guarded by a
/// Clearance predicate resolving only after it, alternating grant/deny.
std::string MakeGuardedDocument(int folders, int consults) {
  std::string xml = "<Hospital>";
  for (int f = 0; f < folders; ++f) {
    xml += "<Folder><MedActs>";
    for (int c = 0; c < consults; ++c) {
      xml += "<Consult><Diagnostic>" + Payload("diag", f * 100 + c, 96) +
             "</Diagnostic></Consult>";
    }
    xml += "</MedActs>";
    xml += std::string("<Clearance>") + (f % 2 ? "closed" : "open") +
           "</Clearance></Folder>";
  }
  xml += "</Hospital>";
  return xml;
}

/// Compares the three pending-part strategies on the guarded workload and
/// enforces the PR's regression gate: with the deferral budget on, peak
/// buffered bytes must stay below the budget while the view stays
/// byte-identical — even though a pending predicate guards the document's
/// largest subtrees.
void RunDeferredMode(const Bench& bench, const char* name, JsonScope* root) {
  JsonScope out = root->Object(name);
  const uint64_t kBudget = 1024;
  const std::string xml = MakeGuardedDocument(/*folders=*/6, /*consults=*/24);
  auto parsed =
      access::ParseRuleList("+ /Hospital/Folder[Clearance = open]/MedActs\n");
  if (!parsed.ok()) return Fail(name, parsed.status());
  std::vector<access::AccessRule> rules = parsed.take();

  server::DocumentService service;
  const Status published = service.Publish(
      "bench", xml,
      ColdConfig(index::Variant::kTcsbr, bench.layout, bench.backend));
  if (!published.ok()) return Fail(name, published);
  pipeline::ServeOptions deferred{/*enable_skip=*/true, kBudget};
  pipeline::ServeOptions buffered{/*enable_skip=*/true, UINT64_MAX};
  pipeline::ServeOptions full{/*enable_skip=*/false, UINT64_MAX};
  auto d_run = service.Serve("bench", rules, deferred);
  auto b_run = service.Serve("bench", rules, buffered);
  auto f_run = service.Serve("bench", rules, full);
  if (!d_run.ok() || !b_run.ok() || !f_run.ok()) {
    return Fail(name, "serve failed");
  }
  const ServeReport& d = d_run.value();
  const ServeReport& b = b_run.value();
  const ServeReport& f = f_run.value();

  const bool views_identical = Check(d.view == f.view && b.view == f.view,
                                     name, "views diverge across strategies");
  const bool budget_respected =
      Check(d.eval.peak_buffered_bytes < kBudget, name,
            "peak buffered bytes %llu breach the %llu budget",
            ull(d.eval.peak_buffered_bytes), ull(kBudget));
  Check(b.eval.peak_buffered_bytes >= kBudget, name,
        "workload not adversarial (buffered peak %llu under budget)",
        ull(b.eval.peak_buffered_bytes));
  Check(d.drive.deferrals != 0 && d.drive.rereads != 0 &&
            d.eval.deferrals_denied != 0,
        name, "expected both granted and denied deferrals");
  // Re-read economy: granted deferrals must not pay the proof machinery
  // twice — splices verify against the digest cache (bare chunk reads)
  // and the deferred strategy must beat classic buffering on the wire.
  Check(d.bare_chunk_reads != 0, name,
        "re-reads shipped integrity material the digest cache should have "
        "waived");
  Check(d.wire_bytes < b.wire_bytes, name,
        "deferral no longer cheaper than buffering on the wire (%llu vs "
        "%llu)",
        ull(d.wire_bytes), ull(b.wire_bytes));

  out.Field("document_bytes", xml.size());
  out.Field("pending_buffer_budget", kBudget);
  auto write = [&out](const char* strategy, const ServeReport& r) {
    JsonScope s = out.Object(strategy);
    WriteCounters(&s, r,
                  {"wire_bytes", "bytes_decrypted", "peak_buffered",
                   "peak_buffered_bytes", "deferrals", "deferrals_granted",
                   "deferrals_denied", "rereads", "reread_bytes",
                   "reread_decoded_bytes", "bare_chunk_reads"});
  };
  write("deferred", d);
  write("buffered", b);
  write("full_stream", f);
  out.Field("views_identical", views_identical);
  out.Field("budget_respected", budget_respected);
}

/// The cross-serve shared-cache scenario: one DocumentService, two
/// sessions of the same document back to back. The first (cold) serve
/// pays the Merkle material; the second starts warm — every proof is
/// trimmed to nothing and every chunk read is bare, so its wire traffic is
/// ciphertext only and must land under 60% of the cold serve's. This is
/// also the needle workload's round-trip economics fix: each of the many
/// small batches a needle serve issues stops carrying material entirely.
void RunWarmCache(const Bench& bench, const char* name, JsonScope* root) {
  JsonScope out = root->Object(name);
  server::DocumentConfig cfg;
  cfg.variant = index::Variant::kTcsbr;
  // A finer-grained layout than the main matrix: the integrity-overhead
  // regime (proof hashes rival fragment payloads) is exactly where the
  // shared cache pays, and where SOE-class devices with small RAM sit.
  cfg.layout.chunk_size = 512;
  cfg.layout.fragment_size = 32;
  cfg.key = BenchKey();
  cfg.backend = bench.backend;
  server::DocumentService service;
  const Status published = service.Publish("bench", bench.xml, cfg);
  if (!published.ok()) return Fail(name, published);
  auto parsed = access::ParseRuleList("+ //Prescription\n");
  if (!parsed.ok()) return Fail(name, parsed.status());
  std::vector<access::AccessRule> rules = parsed.take();

  pipeline::ServeOptions opts;
  auto cold_run = service.Serve("bench", rules, opts);
  auto warm_run = service.Serve("bench", rules, opts);
  if (!cold_run.ok() || !warm_run.ok()) {
    return Fail(name, "serve failed");
  }
  const ServeReport& cold = cold_run.value();
  const ServeReport& warm = warm_run.value();

  Check(warm.view == cold.view, name, "warm view diverges from cold");
  Check(warm.proof_hashes_shipped == 0 && warm.digest_bytes_shipped == 0,
        name,
        "warm serve re-shipped integrity material (%llu hashes, %llu digest "
        "bytes) the shared cache holds",
        ull(warm.proof_hashes_shipped), ull(warm.digest_bytes_shipped));
  Check(warm.bare_chunk_reads != 0, name,
        "no bare chunk reads on a warm serve");
  const bool under_60 =
      Check(warm.wire_bytes * 10 < cold.wire_bytes * 6, name,
            "warm wire %llu not under 60%% of cold %llu",
            ull(warm.wire_bytes), ull(cold.wire_bytes));

  out.Field("document_bytes", bench.xml.size());
  out.Field("chunk_size", cfg.layout.chunk_size);
  out.Field("fragment_size", cfg.layout.fragment_size);
  auto write = [&out](const char* serve, const ServeReport& r) {
    JsonScope s = out.Object(serve);
    WriteCounters(&s, r,
                  {"wire_bytes", "bytes_fetched", "requests",
                   "proof_hashes_shipped", "digest_bytes_shipped",
                   "bare_chunk_reads"});
  };
  write("cold", cold);
  write("warm", warm);
  out.Field("warm_under_60_percent", under_60);
}

/// The corpus-generator section: every family at 64 KiB (16 KiB under
/// --quick), with its four matched rule families evaluated by a direct SAX
/// pass. Everything here is a pure function of (family, seed, size), so
/// the regression script diffs the counters exactly. In-bench gates:
/// generation is deterministic (regenerating yields byte-identical XML),
/// every corpus reaches its target size, and appending absent-tag rules
/// (the rule-set-size axis of the paper's complexity experiment) never
/// changes a view.
void RunCorpus(const Bench& bench, const char* name, JsonScope* root) {
  JsonScope out = root->Object(name);
  const uint64_t corpus_bytes =
      bench.quick ? uint64_t{16} << 10 : uint64_t{64} << 10;
  out.Field("target_bytes", corpus_bytes);
  out.Field("seed", 1);
  JsonScope rows = out.Array("families");
  for (bench::CorpusFamily family : bench::AllFamilies()) {
    const std::string where = std::string(name) + "/" +
                              bench::FamilyName(family);
    bench::CorpusSpec spec;
    spec.family = family;
    spec.seed = 1;
    spec.target_bytes = corpus_bytes;
    const bench::Corpus corpus = bench::GenerateCorpus(spec);
    Check(bench::GenerateCorpus(spec).xml == corpus.xml, where,
          "generation is not deterministic");
    Check(corpus.xml.size() >= corpus_bytes, where,
          "%zu bytes under the %llu target", corpus.xml.size(),
          ull(corpus_bytes));
    JsonScope row = rows.Object();
    row.Field("family", bench::FamilyName(family));
    row.Field("document_bytes", corpus.xml.size());
    row.Field("records", corpus.records);
    row.Field("max_depth", corpus.max_depth);
    JsonScope cells = row.Array("rule_families");
    for (bench::RuleFamily rf : bench::AllRuleFamilies()) {
      const std::string cell = where + "/" + bench::RuleFamilyName(rf);
      auto rules = access::ParseRuleList(bench::RulesFor(family, rf));
      auto grown = access::ParseRuleList(
          bench::RulesFor(family, rf, /*extra_absent_rules=*/8));
      if (!rules.ok() || !grown.ok()) {
        return Fail(cell, "bad rules");
      }
      auto view = DirectView(corpus.xml, rules.value());
      auto grown_view = DirectView(corpus.xml, grown.value());
      if (!view.ok() || !grown_view.ok()) {
        return Fail(cell, "direct view failed");
      }
      Check(view.value() == grown_view.value(), cell,
            "absent-tag rules changed the view");
      JsonScope c = cells.Object();
      c.Field("rules", bench::RuleFamilyName(rf));
      c.Field("rule_count", rules.value().size());
      c.Field("view_bytes", view.value().size());
    }
  }
}

/// One store-level attack against a store built under `backend`; returns
/// true when the SOE rejects it as a clean IntegrityError (any other
/// outcome — success, or a different error class — is a broken backend).
bool BackendAttackRejected(crypto::CipherBackendKind backend, int attack) {
  std::vector<uint8_t> doc(4096);
  for (size_t i = 0; i < doc.size(); ++i) {
    doc[i] = static_cast<uint8_t>('a' + i % 26);
  }
  crypto::ChunkLayout lay;
  lay.chunk_size = 512;
  lay.fragment_size = 32;
  uint32_t expected_version = 1;
  auto store = crypto::SecureDocumentStore::Build(doc, BenchKey(), lay,
                                                  /*version=*/1, backend);
  if (!store.ok()) return false;
  switch (attack) {
    case 0: store.value().TamperByte(2048, 0x40); break;
    case 1: store.value().SwapBlocks(2, 3); break;
    case 2: store.value().SwapChunkDigests(0, 1); break;
    case 3: expected_version = 2; break;  // Replayed stale version.
  }
  crypto::SoeDecryptor soe(BenchKey(), lay, store.value().plaintext_size(),
                           store.value().chunk_count(), expected_version,
                           crypto::SoeDecryptor::kDefaultDigestCacheCapacity,
                           /*shared_cache=*/nullptr, backend);
  crypto::BatchRequest whole;
  whole.runs.push_back({0, store.value().ciphertext().size()});
  auto resp = store.value().ReadBatch(whole);
  if (!resp.ok()) return false;
  std::vector<uint8_t> plain(store.value().plaintext_size());
  Status st = soe.DecryptVerifiedBatch(whole, resp.value(), plain.data(),
                                       plain.size());
  return st.code() == StatusCode::kIntegrityError;
}

/// The cross-backend section: the exact gates that make the cipher
/// backend a pure performance axis, plus the per-backend decrypt-bound
/// perf probe. (1) Equivalence matrix: every corpus family × rule family
/// × variant must serve the byte-identical authorized view under every
/// backend — "3des" (the paper-faithful default) and "aes" (AES-NI when
/// the CPU has it; the portable path under CSXA_FORCE_PORTABLE=1, as the
/// csxa_bench_smoke_portable test runs it). (2)
/// Attack matrix: flipped ciphertext byte, swapped cipher blocks,
/// transposed chunk digests, and a replayed stale version must each fail
/// closed as a clean IntegrityError on every backend. (3) Perf: a
/// closed_world NC serve of the hospital document per backend — the
/// workload where decrypt dominates — gated on full runs to the PR 7
/// target (AES on AES-NI hardware ≥ 9 MB/s serve rate, 10× the
/// BENCH_PR6 software-3DES baseline).
void RunBackends(const Bench& bench, const char* name, JsonScope* root) {
  using crypto::CipherBackendKind;
  using crypto::CipherBackendKindName;
  JsonScope out = root->Object(name);
  const CipherBackendKind kBackends[] = {CipherBackendKind::k3Des,
                                         CipherBackendKind::kAes};

  // (1) Equivalence matrix over generated corpora. Quick mode trims the
  // family list and corpus size so sanitizer smokes stay fast; the gate
  // itself (byte-identical views) is never relaxed.
  const std::vector<bench::CorpusFamily> families =
      bench.quick ? bench::PaperFamilies() : bench::AllFamilies();
  const uint64_t corpus_bytes =
      bench.quick ? uint64_t{8} << 10 : uint64_t{24} << 10;
  uint64_t serves = 0;
  uint64_t view_mismatches = 0;
  for (bench::CorpusFamily family : families) {
    bench::CorpusSpec spec;
    spec.family = family;
    spec.seed = 1;
    spec.target_bytes = corpus_bytes;
    const bench::Corpus corpus = bench::GenerateCorpus(spec);
    for (bench::RuleFamily rf : bench::AllRuleFamilies()) {
      const std::string cell = std::string(name) + "/" +
                               bench::FamilyName(family) + "/" +
                               bench::RuleFamilyName(rf);
      auto rules = access::ParseRuleList(bench::RulesFor(family, rf));
      if (!rules.ok()) return Fail(cell, rules.status());
      auto reference = DirectView(corpus.xml, rules.value());
      if (!reference.ok()) return Fail(cell, reference.status());
      for (index::Variant v : kVariants) {
        for (CipherBackendKind backend : kBackends) {
          const std::string where = cell + "/" + VariantName(v) + "/" +
                                    CipherBackendKindName(backend);
          auto run = RunVariant(corpus.xml, v, rules.value(), bench.layout,
                                backend);
          if (!run.ok()) return Fail(where, run.status());
          ++serves;
          if (!Check(run.value().view == reference.value(), where,
                     "authorized view diverges from the direct reference")) {
            ++view_mismatches;
          }
        }
      }
    }
  }

  // (2) Attack matrix: 4 attacks × 2 backends, every one a clean
  // IntegrityError.
  static const char* const kAttackNames[] = {
      "tampered_byte", "swapped_blocks", "transposed_digests",
      "stale_version"};
  uint64_t attacks_rejected = 0;
  const uint64_t attacks_total = std::size(kAttackNames) * std::size(kBackends);
  for (CipherBackendKind backend : kBackends) {
    for (int attack = 0; attack < 4; ++attack) {
      if (Check(BackendAttackRejected(backend, attack),
                std::string(name) + "/" + CipherBackendKindName(backend),
                "%s not rejected as a clean IntegrityError",
                kAttackNames[attack])) {
        ++attacks_rejected;
      }
    }
  }

  {
    JsonScope eq = out.Object("equivalence");
    eq.Field("families", families.size());
    eq.Field("rule_families", bench::AllRuleFamilies().size());
    eq.Field("variants", std::size(kVariants));
    {
      JsonScope names = eq.Array("backends");
      for (CipherBackendKind backend : kBackends) {
        names.Field({}, CipherBackendKindName(backend));
      }
    }
    eq.Field("serves", serves);
    eq.Field("views_identical", view_mismatches == 0);
    eq.Field("attacks_rejected", attacks_rejected);
    eq.Field("attacks_total", attacks_total);
    eq.Field("all_attacks_rejected", attacks_rejected == attacks_total);
  }

  // (3) Per-backend perf probe: the closed_world NC serve — the whole
  // ciphertext crosses the wire and the SOE decrypts and hashes all of
  // it, so the cipher dominates and the backends are directly
  // comparable. Best of three serves to damp scheduler noise.
  auto parsed = access::ParseRuleList("+ /Hospital/Folder/MedActs\n");
  if (!parsed.ok()) return Fail(name, parsed.status());
  std::vector<access::AccessRule> rules = parsed.take();
  JsonScope probes = out.Array("nc_closed_world");
  for (CipherBackendKind backend : kBackends) {
    const std::string where =
        std::string(name) + "/" + CipherBackendKindName(backend);
    auto store = BuildNcStore(bench.xml, bench.layout, backend);
    if (!store.ok()) return Fail(where, store.status());
    ServeReport best;
    uint64_t best_ns = 0;
    for (int rep = 0; rep < 3; ++rep) {
      const uint64_t t0 = NowNs();
      auto run = ServeStreamAll(&store.value(), store.value(), rules, backend,
                                index::PlannerOptions());
      const uint64_t ns = NowNs() - t0;
      if (!run.ok()) {
        return Fail(where, "NC serve failed: %s",
                    run.status().ToString().c_str());
      }
      if (rep == 0 || ns < best_ns) {
        best_ns = ns;
        best = run.take();
      }
    }
    auto mbps = [](uint64_t bytes, uint64_t ns) {
      return ns == 0 ? 0.0 : static_cast<double>(bytes) * 1000.0 /
                                 static_cast<double>(ns);
    };
    const double serve_mb_s = mbps(best.encoded_bytes, best_ns);
    JsonScope probe = probes.Object();
    probe.Field("backend", CipherBackendKindName(backend));
    probe.Field("hardware", crypto::CipherBackendHardwareAccelerated(backend));
    if (backend == CipherBackendKind::k3Des) {
      probe.Field("kernel", crypto::TripleDesKernelName());
    }
    probe.Field("block_size", crypto::CipherBackendBlockSize(backend));
    probe.Field("document_bytes", best.encoded_bytes);
    probe.Field("serve_ns", best_ns);
    probe.Field("serve_mb_s", serve_mb_s);
    probe.Field("decrypt_mb_s",
                mbps(best.soe.bytes_decrypted, best.soe.decrypt_ns));
    probe.Field("hash_mb_s", mbps(best.soe.bytes_hashed, best.soe.hash_ns));
    // The PR 7 acceptance gate, applied where it is meaningful: a full
    // (non-quick) run on a machine whose AES backend really runs AES-NI.
    Check(bench.quick || backend != CipherBackendKind::kAes ||
              !crypto::CipherBackendHardwareAccelerated(backend) ||
              serve_mb_s >= 9.0,
          where,
          "closed_world NC serve %.1f MB/s under the 9 MB/s target on AES-NI "
          "hardware",
          serve_mb_s);
  }
}

/// The network-latency sweep (PR 9): the paper's architecture claim,
/// measured where it was actually aimed — across a slow link. For each
/// injected RTT (0 / 1 / 10 ms, through a real TerminalServer and a
/// pacing FaultProxy modeling a smartcard-class serial link), serve the
/// closed_world scenario over TCP twice from cold caches: TCSBR with
/// skip navigation (the paper's proposal), and stream-all — the NC
/// baseline that ships the whole raw document for the SOE to filter,
/// the architecture the paper argues against. Gate: at every RTT point
/// the skip serve must win on wire bytes AND on wall clock. The round
/// trips skipping adds (demand paging pays one per pruned region) are
/// exactly what RTT charges for, so this is the honest price of the
/// index — it must stay under the price of shipping everything. Both
/// serves run against separately published documents so neither
/// inherits a warm shared digest cache from the other. (The in-process
/// cost-model gate on the scenario matrix already pins skip-vs-full
/// *within* a variant; this section prices the paper's Figure 8
/// comparison across link latencies.)
void RunLatencySweep(const Bench& bench, const char* name, JsonScope* root) {
  JsonScope out = root->Object(name);
  // ~9600-baud-class serial link: byte time dominates round trips, the
  // regime the paper's SOE targets. Raising this erodes the skip win at
  // high RTT (skip pays more round trips); the gate documents the trade.
  constexpr uint64_t kBandwidthBytesPerS = 8192;
  out.Field("scenario", "closed_world");
  out.Field("skip_variant", "tcsbr");
  out.Field("stream_all_variant", "nc");
  out.Field("document_bytes", bench.xml.size());
  out.Field("bandwidth_bytes_per_s", kBandwidthBytesPerS);
  JsonScope points = out.Array("points");

  auto parsed = access::ParseRuleList("+ /Hospital/Folder/MedActs\n");
  if (!parsed.ok()) return Fail(name, parsed.status());
  std::vector<access::AccessRule> rules = parsed.take();
  auto reference = DirectView(bench.xml, rules);
  if (!reference.ok()) return Fail(name, reference.status());

  for (uint64_t rtt_ms : {0, 1, 10}) {
    const std::string where =
        std::string(name) + "/" + std::to_string(rtt_ms) + "ms";
    server::DocumentConfig cfg;
    cfg.variant = index::Variant::kTcsbr;
    cfg.layout = bench.layout;
    cfg.key = BenchKey();
    cfg.backend = bench.backend;
    server::DocumentService service;
    if (!service.Publish("sweep_skip", bench.xml, cfg).ok()) {
      return Fail(name, "publish failed");
    }
    // The stream-all side is the NC image — the raw text in a
    // SecureDocumentStore, no structure index — registered on the same
    // terminal. (NC has no pipeline encoding, so ServeStreamAll serves
    // it: fetch everything, SAX-filter in the SOE.)
    auto nc_build = BuildNcStore(bench.xml, cfg.layout, bench.backend);
    if (!nc_build.ok()) return Fail(where, nc_build.status());
    auto nc_store =
        std::make_shared<crypto::SecureDocumentStore>(nc_build.take());
    net::TerminalServer server;
    auto link = service.TerminalLink("sweep_skip");
    if (!link.ok()) return Fail(where, link.status());
    server.RegisterDocument("sweep_skip", link.take());
    server.RegisterDocument("sweep_full", nc_store);
    Status started = server.Start();
    if (!started.ok()) return Fail(where, started);
    net::FaultProxy::Options proxy_opts;
    proxy_opts.upstream_port = server.port();
    proxy_opts.rtt_ns = rtt_ms * 1'000'000ULL;
    proxy_opts.bandwidth_bytes_per_s = kBandwidthBytesPerS;
    net::FaultProxy proxy(proxy_opts);
    started = proxy.Start();
    if (!started.ok()) return Fail(where, started);
    // Pacing stretches every response; the sweep measures latency, it
    // must never trip deadlines into retries.
    net::RemoteBatchSource::Options ropts;
    ropts.port = proxy.port();
    ropts.doc_id = "sweep_skip";
    ropts.deadline_ns = 30'000'000'000ULL;
    const Status attached = service.AttachTransport(
        "sweep_skip", std::make_shared<net::RemoteBatchSource>(ropts));
    if (!attached.ok()) return Fail(where, attached);
    // On a slow link every round trip is expensive, so the SOE spends
    // response buffer to save them: a 16 KB batch horizon (vs the
    // default four chunks) — still smartcard-plausible RAM — applied to
    // BOTH modes, so the comparison stays fair.
    index::PlannerOptions planner;
    planner.max_batch_bytes = 16 << 10;

    net::RemoteBatchSource::Options full_opts = ropts;
    full_opts.doc_id = "sweep_full";
    net::RemoteBatchSource remote(full_opts);
    uint64_t t0 = NowNs();
    auto full = ServeStreamAll(&remote, *nc_store, rules, bench.backend,
                               planner);
    const uint64_t full_ns = NowNs() - t0;
    pipeline::ServeOptions opts{/*skip=*/true, UINT64_MAX};
    opts.planner = planner;
    t0 = NowNs();
    auto skip = service.Serve("sweep_skip", rules, opts);
    const uint64_t skip_ns = NowNs() - t0;
    (void)service.AttachTransport("sweep_skip", nullptr);
    proxy.Stop();
    server.Stop();
    if (!full.ok() || !skip.ok()) {
      return Fail(where, "serve failed: %s",
                  (full.ok() ? skip.status() : full.status())
                      .ToString()
                      .c_str());
    }
    Check(skip.value().view == reference.value() &&
              full.value().view == reference.value(),
          where, "remote view diverges from the direct SAX pass");
    const uint64_t skip_wire = skip.value().wire_bytes;
    const uint64_t full_wire = full.value().wire_bytes;
    const bool wins_wire = skip_wire < full_wire;
    const bool wins_wall = skip_ns < full_ns;
    Check(wins_wire && wins_wall, where,
          "skip must beat stream-all on wire AND wall clock (wire %llu vs "
          "%llu, wall %.1f ms vs %.1f ms)",
          ull(skip_wire), ull(full_wire), skip_ns / 1e6, full_ns / 1e6);

    JsonScope point = points.Object();
    point.Field("rtt_ms", rtt_ms);
    auto write = [&point](const char* mode, const ServeReport& r,
                          uint64_t wall_ns) {
      JsonScope s = point.Object(mode);
      WriteCounters(&s, r, {"wire_bytes", "requests", "retries"});
      s.Field("wall_ns", wall_ns);
    };
    write("stream_all", full.value(), full_ns);
    write("tcsbr_skip", skip.value(), skip_ns);
    point.Field("skip_wins_wire", wins_wire);
    point.Field("skip_wins_wall_clock", wins_wall);
  }
}

/// The fault matrix (PR 9): every injectable network fault, against both
/// cipher backends, against cold and warm shared digest caches, served
/// over a real TCP terminal behind the programmed FaultProxy. The gate is
/// the transport contract itself: survivable weather (silent drop, stall
/// past the deadline, mid-response close, duplicated response) must end
/// in a byte-identical view after typed retries; tampering (truncated
/// frame, corrupted byte) must end in a terminal IntegrityError. Any
/// view that differs from the direct SAX pass — and any error outside
/// the contracted classes — fails the bench. The per-cell retry and
/// reconnect counts are published for the trajectory, not gated (they
/// depend on scheduling).
void RunFaultMatrix(const Bench&, const char* name, JsonScope* root) {
  JsonScope out = root->Object(name);
  struct FaultCase {
    net::FaultProxy::Fault fault;
    const char* name;
    uint64_t arg;
    bool survivable;
  };
  const FaultCase kCases[] = {
      {net::FaultProxy::Fault::kDropAfterBytes, "drop_after_bytes", 13, true},
      {net::FaultProxy::Fault::kStall, "stall", 700'000'000, true},
      {net::FaultProxy::Fault::kCloseMidResponse, "close_mid_response", 0,
       true},
      {net::FaultProxy::Fault::kDuplicateResponse, "duplicate_response", 0,
       true},
      {net::FaultProxy::Fault::kTruncateFrame, "truncate_frame", 0, false},
      {net::FaultProxy::Fault::kCorruptByte, "corrupt_byte", 9, false},
  };

  const std::string xml = MakeDocument(/*folders=*/4, /*consults=*/3,
                                       /*analyses=*/4);
  auto parsed = access::ParseRuleList("+ //Prescription\n");
  if (!parsed.ok()) return Fail(name, parsed.status());
  std::vector<access::AccessRule> rules = parsed.take();
  auto reference = DirectView(xml, rules);
  if (!reference.ok()) return Fail(name, reference.status());

  uint64_t view_mismatches = 0;
  uint64_t contract_violations = 0;
  {
    JsonScope cells = out.Array("cells");
    for (const FaultCase& fc : kCases) {
      for (crypto::CipherBackendKind backend :
           {crypto::CipherBackendKind::k3Des,
            crypto::CipherBackendKind::kAes}) {
        for (bool warm : {false, true}) {
          const std::string cell = std::string(name) + "/" + fc.name + "/" +
                                   crypto::CipherBackendKindName(backend) +
                                   (warm ? "/warm" : "/cold");
          server::DocumentConfig cfg;
          cfg.variant = index::Variant::kTcsbr;
          cfg.layout.chunk_size = 256;
          cfg.layout.fragment_size = 32;
          cfg.key = BenchKey();
          cfg.backend = backend;
          server::DocumentService service;
          Status st = service.Publish("doc", xml, cfg);
          if (!st.ok()) return Fail(cell, st);
          net::TerminalServer server;
          auto link = service.TerminalLink("doc");
          if (!link.ok()) return Fail(cell, link.status());
          server.RegisterDocument("doc", link.take());
          st = server.Start();
          if (!st.ok()) return Fail(cell, st);

          net::RemoteBatchSource::Options ropts;
          ropts.doc_id = "doc";
          ropts.deadline_ns = 250'000'000;
          ropts.max_attempts = 4;
          ropts.backoff_initial_ns = 1'000'000;
          ropts.backoff_max_ns = 8'000'000;

          if (warm) {
            // Prime the shared digest cache over a clean remote path.
            ropts.port = server.port();
            st = service.AttachTransport(
                "doc", std::make_shared<net::RemoteBatchSource>(ropts));
            if (!st.ok()) return Fail(cell, st);
            auto primed =
                service.Serve("doc", rules, pipeline::ServeOptions{});
            if (!primed.ok() || primed.value().view != reference.value()) {
              return Fail(cell, "priming serve failed");
            }
            (void)service.AttachTransport("doc", nullptr);
          }

          net::FaultProxy::Options proxy_opts;
          proxy_opts.upstream_port = server.port();
          // Response 0 is the bind ack; 1 is the first real batch response.
          proxy_opts.program = {{fc.fault, /*response_index=*/1, fc.arg}};
          net::FaultProxy proxy(proxy_opts);
          st = proxy.Start();
          if (!st.ok()) return Fail(cell, st);
          ropts.port = proxy.port();
          st = service.AttachTransport(
              "doc", std::make_shared<net::RemoteBatchSource>(ropts));
          if (!st.ok()) return Fail(cell, st);

          auto report = service.Serve("doc", rules, pipeline::ServeOptions{});
          const char* outcome = nullptr;
          uint64_t retries = 0;
          uint64_t reconnects = 0;
          if (report.ok()) {
            retries = report.value().retries;
            reconnects = report.value().reconnects;
            if (report.value().view != reference.value()) {
              outcome = "VIEW_MISMATCH";
              ++view_mismatches;
            } else if (fc.survivable) {
              outcome = "retried_success";
            } else {
              // Tampering should not have produced a view at all — even a
              // correct one (a retry that re-verified) breaks the terminal
              // contract this matrix pins.
              outcome = "UNEXPECTED_VIEW";
              ++contract_violations;
            }
          } else {
            const StatusCode code = report.status().code();
            const bool contracted = code == StatusCode::kIntegrityError ||
                                    code == StatusCode::kUnavailable ||
                                    code == StatusCode::kDeadlineExceeded;
            if (!contracted) {
              outcome = "UNCONTRACTED_ERROR";
              ++contract_violations;
            } else if (fc.survivable) {
              outcome = "UNEXPECTED_FAILURE";
              ++contract_violations;
            } else if (code != StatusCode::kIntegrityError) {
              outcome = "WRONG_ERROR_CLASS";
              ++contract_violations;
            } else {
              outcome = "integrity_error";
            }
          }
          // Contract breaches are spelled in capitals.
          Check(!(outcome[0] >= 'A' && outcome[0] <= 'Z'), cell, "%s (%s)",
                outcome,
                report.ok() ? "serve returned a view"
                            : report.status().ToString().c_str());
          Check(proxy.faults_fired() == 1, cell,
                "programmed fault fired %llu times, not once",
                ull(proxy.faults_fired()));

          JsonScope c = cells.Object();
          c.Field("fault", fc.name);
          c.Field("backend", crypto::CipherBackendKindName(backend));
          c.Field("cache", warm ? "warm" : "cold");
          c.Field("outcome", outcome);
          c.Field("retries", retries);
          c.Field("reconnects", reconnects);

          (void)service.AttachTransport("doc", nullptr);
          proxy.Stop();
          server.Stop();
        }
      }
    }
  }
  out.Field("view_mismatches", view_mismatches);
  out.Field("contract_violations", contract_violations);
}

/// One top-level member of the output: writes `name` into the root.
struct Section {
  const char* name;
  void (*run)(const Bench& bench, const char* name, JsonScope* root);
};

constexpr Section kSections[] = {
    {"config", WriteConfig},
    {"scenarios", RunScenarios},
    {"deferred_mode", RunDeferredMode},
    {"warm_cache", RunWarmCache},
    {"backends", RunBackends},
    // Transport sections: skip navigation priced across a slow
    // link, and the fault matrix served through the programmed proxy.
    {"latency_sweep", RunLatencySweep},
    {"fault_matrix", RunFaultMatrix},
    {"corpus", RunCorpus},
};

}  // namespace

int main(int argc, char** argv) {
  Bench bench;
  bench.layout.chunk_size = 1024;
  bench.layout.fragment_size = 64;
  std::string out_path = "BENCH_PR9.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      bench.quick = true;
      bench.folders = 4;
    } else if (arg == "--backend" && i + 1 < argc) {
      auto kind = crypto::ParseCipherBackendName(argv[++i]);
      if (!kind.ok()) {
        std::fprintf(stderr, "csxa_bench: %s\n",
                     kind.status().message().c_str());
        return 2;
      }
      bench.backend = kind.value();
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: csxa_bench [--quick] "
                   "[--backend 3des|aes] [--out FILE]\n");
      return 2;
    }
  }
  bench.xml = MakeDocument(bench.folders, /*consults=*/3, /*analyses=*/4);

  std::string json;
  {
    JsonScope root(&json);
    root.Field("benchmark", "csxa_skip_navigation");
    root.Field("pr", 9);
    for (const Section& section : kSections) {
      section.run(bench, section.name, &root);
    }
    root.Field("checks_passed", checks_passed);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("%s%s written to %s\n", checks_passed ? "" : "CHECKS FAILED; ",
              "benchmark results", out_path.c_str());
  return checks_passed ? 0 : 1;
}

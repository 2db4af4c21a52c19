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
// The scenario matrix source is flag-driven: --folders/--chunk/--fragment
// resize the hand-built hospital document and layout; --corpus FAMILY
// swaps in a generated corpus with its matched rule families (exploratory:
// the strict pruning gates assume the hand-built document and are skipped).

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
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

struct VariantRun {
  index::Variant variant = index::Variant::kNc;
  uint64_t encoded_bytes = 0;
  uint64_t wire_bytes = 0;
  uint64_t wire_bytes_full = 0;  ///< Same variant, skipping disabled.
  uint64_t bytes_fetched = 0;
  uint64_t bytes_decrypted = 0;
  uint64_t bytes_hashed = 0;
  uint64_t requests = 0;
  uint64_t segments = 0;
  uint64_t bare_chunk_reads = 0;
  uint64_t proof_hashes_shipped = 0;
  uint64_t digest_bytes_shipped = 0;
  uint64_t gap_fragments_bridged = 0;
  uint64_t skips = 0;
  uint64_t skipped_bytes = 0;
  uint64_t events_in = 0;
  uint64_t peak_buffered = 0;
  uint64_t peak_buffered_bytes = 0;
  uint64_t deferrals = 0;
  uint64_t rereads = 0;
  uint64_t reread_bytes = 0;          ///< Bytes actually pulled in splices.
  uint64_t reread_decoded_bytes = 0;  ///< Encoded span re-decoded.
  std::string view;
};

/// Wall clock of one NC serve (fetch, decrypt, parse, evaluate) and the
/// SOE's decrypt and hash timers inside it: the backends section's
/// closed_world probe, the one timing gate on the in-process serve.
struct NcTimings {
  uint64_t serve_ns = 0;
  uint64_t decrypt_ns = 0;
  uint64_t hash_ns = 0;
};

/// Stream-all serve of an NC image: with no structure index nothing can
/// be skipped, so the whole ciphertext crosses the wire from `source` (the
/// store itself, or a link to it) and the SOE SAX-filters the plaintext.
/// `store` describes the image's layout and sizes.
Result<VariantRun> ServeStreamAll(const crypto::BatchSource* source,
                                  const crypto::SecureDocumentStore& store,
                                  const std::vector<access::AccessRule>& rules,
                                  crypto::CipherBackendKind backend,
                                  const index::PlannerOptions& planner,
                                  NcTimings* timings) {
  crypto::SoeDecryptor soe(BenchKey(), store.layout(), store.plaintext_size(),
                           store.chunk_count(), /*expected_version=*/0,
                           crypto::SoeDecryptor::kDefaultDigestCacheCapacity,
                           /*shared_cache=*/nullptr, backend);
  index::SecureFetcher fetcher(source, store.layout(), store.plaintext_size(),
                               store.ciphertext().size(), &soe, planner);
  const uint64_t t0 = NowNs();
  CSXA_RETURN_NOT_OK(fetcher.Ensure(0, fetcher.size()));
  std::string plain(
      common::AsChars(fetcher.verified_view().data(), fetcher.size()));
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules, &ser);
  CSXA_RETURN_NOT_OK(xml::SaxParser::Parse(plain, &eval));
  CSXA_RETURN_NOT_OK(eval.Finish());
  if (timings != nullptr) {
    *timings = {NowNs() - t0, soe.counters().decrypt_ns,
                soe.counters().hash_ns};
  }
  VariantRun run;
  run.variant = index::Variant::kNc;
  run.encoded_bytes = store.plaintext_size();
  run.wire_bytes = run.wire_bytes_full = fetcher.wire_bytes();
  run.bytes_fetched = fetcher.bytes_fetched();
  run.bytes_decrypted = soe.counters().bytes_decrypted;
  run.bytes_hashed = soe.counters().bytes_hashed;
  run.requests = fetcher.requests();
  run.segments = fetcher.segments();
  run.events_in = eval.stats().events_in;
  run.peak_buffered = eval.stats().peak_buffered;
  run.peak_buffered_bytes = eval.stats().peak_buffered_bytes;
  run.view = ser.output();
  return run;
}

/// NC reference point: the raw XML text is encrypted as-is and served
/// stream-all from the in-process store.
Result<VariantRun> RunNc(const std::string& xml,
                         const std::vector<access::AccessRule>& rules,
                         const crypto::ChunkLayout& layout,
                         crypto::CipherBackendKind backend,
                         NcTimings* timings = nullptr) {
  std::vector<uint8_t> bytes(xml.begin(), xml.end());
  CSXA_ASSIGN_OR_RETURN(
      crypto::SecureDocumentStore store,
      crypto::SecureDocumentStore::Build(bytes, BenchKey(), layout,
                                         /*version=*/0, backend));
  return ServeStreamAll(&store, store, rules, backend, index::PlannerOptions(),
                        timings);
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

Result<VariantRun> RunVariant(const std::string& xml, index::Variant variant,
                              const std::vector<access::AccessRule>& rules,
                              const crypto::ChunkLayout& layout,
                              crypto::CipherBackendKind backend) {
  if (variant == index::Variant::kNc) return RunNc(xml, rules, layout, backend);
  server::DocumentService service;
  CSXA_RETURN_NOT_OK(
      service.Publish("bench", xml, ColdConfig(variant, layout, backend)));
  CSXA_ASSIGN_OR_RETURN(
      pipeline::ServeReport report,
      service.Serve("bench", rules, {/*skip=*/true, UINT64_MAX}));
  CSXA_ASSIGN_OR_RETURN(
      pipeline::ServeReport full,
      service.Serve("bench", rules, {/*skip=*/false, UINT64_MAX}));
  if (full.view != report.view) {
    return Status::Internal("skip-enabled view diverges from full streaming");
  }

  VariantRun run;
  run.variant = variant;
  run.encoded_bytes = report.encoded_bytes;
  run.wire_bytes = report.wire_bytes;
  run.wire_bytes_full = full.wire_bytes;
  run.bytes_fetched = report.bytes_fetched;
  run.bytes_decrypted = report.soe.bytes_decrypted;
  run.bytes_hashed = report.soe.bytes_hashed;
  run.requests = report.requests;
  run.segments = report.segments;
  run.bare_chunk_reads = report.bare_chunk_reads;
  run.proof_hashes_shipped = report.proof_hashes_shipped;
  run.digest_bytes_shipped = report.digest_bytes_shipped;
  run.gap_fragments_bridged = report.gap_fragments_bridged;
  run.skips = report.drive.skips;
  run.skipped_bytes = report.drive.skipped_bits / 8;
  run.events_in = report.eval.events_in;
  run.peak_buffered = report.eval.peak_buffered;
  run.peak_buffered_bytes = report.eval.peak_buffered_bytes;
  run.deferrals = report.drive.deferrals;
  run.rereads = report.drive.rereads;
  run.reread_bytes = report.drive.reread_fetched_bytes;
  run.reread_decoded_bytes = report.drive.reread_bits / 8;
  run.view = std::move(report.view);
  return run;
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
/// largest subtrees. Appends a "deferred_mode" JSON object; returns false
/// when a gate fails.
bool RunDeferredMode(std::string* json, const crypto::ChunkLayout& layout,
                     crypto::CipherBackendKind backend) {
  const uint64_t kBudget = 1024;
  const std::string xml = MakeGuardedDocument(/*folders=*/6, /*consults=*/24);
  auto parsed =
      access::ParseRuleList("+ /Hospital/Folder[Clearance = open]/MedActs\n");
  if (!parsed.ok()) return false;
  std::vector<access::AccessRule> rules = parsed.take();

  server::DocumentService service;
  const Status published = service.Publish(
      "bench", xml, ColdConfig(index::Variant::kTcsbr, layout, backend));
  if (!published.ok()) {
    std::fprintf(stderr, "deferred_mode: %s\n", published.ToString().c_str());
    return false;
  }
  pipeline::ServeOptions deferred{/*enable_skip=*/true, kBudget};
  pipeline::ServeOptions buffered{/*enable_skip=*/true, UINT64_MAX};
  pipeline::ServeOptions full{/*enable_skip=*/false, UINT64_MAX};
  auto d = service.Serve("bench", rules, deferred);
  auto b = service.Serve("bench", rules, buffered);
  auto f = service.Serve("bench", rules, full);
  if (!d.ok() || !b.ok() || !f.ok()) {
    std::fprintf(stderr, "deferred_mode: serve failed\n");
    return false;
  }

  bool ok = true;
  if (d.value().view != f.value().view || b.value().view != f.value().view) {
    std::fprintf(stderr,
                 "deferred_mode: views diverge across strategies\n");
    ok = false;
  }
  if (d.value().eval.peak_buffered_bytes >= kBudget) {
    std::fprintf(stderr,
                 "deferred_mode: peak buffered bytes %llu breach the %llu "
                 "budget\n",
                 static_cast<unsigned long long>(
                     d.value().eval.peak_buffered_bytes),
                 static_cast<unsigned long long>(kBudget));
    ok = false;
  }
  if (b.value().eval.peak_buffered_bytes < kBudget) {
    std::fprintf(stderr,
                 "deferred_mode: workload not adversarial (buffered peak "
                 "%llu under budget)\n",
                 static_cast<unsigned long long>(
                     b.value().eval.peak_buffered_bytes));
    ok = false;
  }
  if (d.value().drive.deferrals == 0 || d.value().drive.rereads == 0 ||
      d.value().eval.deferrals_denied == 0) {
    std::fprintf(stderr,
                 "deferred_mode: expected both granted and denied "
                 "deferrals\n");
    ok = false;
  }
  // Re-read economy: granted deferrals must not pay the proof machinery
  // twice — splices verify against the digest cache (bare chunk reads)
  // and the deferred strategy must beat classic buffering on the wire.
  if (d.value().bare_chunk_reads == 0) {
    std::fprintf(stderr,
                 "deferred_mode: re-reads shipped integrity material the "
                 "digest cache should have waived\n");
    ok = false;
  }
  if (d.value().wire_bytes >= b.value().wire_bytes) {
    std::fprintf(stderr,
                 "deferred_mode: deferral no longer cheaper than "
                 "buffering on the wire (%llu vs %llu)\n",
                 static_cast<unsigned long long>(d.value().wire_bytes),
                 static_cast<unsigned long long>(b.value().wire_bytes));
    ok = false;
  }

  auto u64 = [](uint64_t v) { return std::to_string(v); };
  auto emit = [&](const char* name, const pipeline::ServeReport& r) {
    *json += std::string("    \"") + name + "\": {";
    *json += "\"wire_bytes\": " + u64(r.wire_bytes);
    *json += ", \"bytes_decrypted\": " + u64(r.soe.bytes_decrypted);
    *json += ", \"peak_buffered\": " + u64(r.eval.peak_buffered);
    *json += ", \"peak_buffered_bytes\": " + u64(r.eval.peak_buffered_bytes);
    *json += ", \"deferrals\": " + u64(r.drive.deferrals);
    *json += ", \"deferrals_granted\": " + u64(r.eval.deferrals_granted);
    *json += ", \"deferrals_denied\": " + u64(r.eval.deferrals_denied);
    *json += ", \"rereads\": " + u64(r.drive.rereads);
    *json += ", \"reread_bytes\": " + u64(r.drive.reread_fetched_bytes);
    *json += ", \"reread_decoded_bytes\": " + u64(r.drive.reread_bits / 8);
    *json += ", \"bare_chunk_reads\": " + u64(r.bare_chunk_reads);
    *json += "}";
  };
  *json += "  \"deferred_mode\": {\n";
  *json += "    \"document_bytes\": " + u64(xml.size()) + ",\n";
  *json += "    \"pending_buffer_budget\": " + u64(kBudget) + ",\n";
  emit("deferred", d.value());
  *json += ",\n";
  emit("buffered", b.value());
  *json += ",\n";
  emit("full_stream", f.value());
  *json += ",\n    \"views_identical\": ";
  *json += d.value().view == f.value().view &&
                   b.value().view == f.value().view
               ? "true"
               : "false";
  *json += ",\n    \"budget_respected\": ";
  *json += d.value().eval.peak_buffered_bytes < kBudget ? "true" : "false";
  *json += "\n  },\n";
  return ok;
}

/// The cross-serve shared-cache scenario: one DocumentService, two
/// sessions of the same document back to back. The first (cold) serve
/// pays the Merkle material; the second starts warm — every proof is
/// trimmed to nothing and every chunk read is bare, so its wire traffic is
/// ciphertext only and must land under 60% of the cold serve's. This is
/// also the needle workload's round-trip economics fix: each of the many
/// small batches a needle serve issues stops carrying material entirely.
/// Appends a "warm_cache" JSON object; returns false when a gate fails.
bool RunWarmCache(std::string* json, int folders,
                  crypto::CipherBackendKind backend) {
  const std::string xml = MakeDocument(folders, /*consults=*/3,
                                       /*analyses=*/4);
  server::DocumentConfig cfg;
  cfg.variant = index::Variant::kTcsbr;
  // A finer-grained layout than the main matrix: the integrity-overhead
  // regime (proof hashes rival fragment payloads) is exactly where the
  // shared cache pays, and where SOE-class devices with small RAM sit.
  cfg.layout.chunk_size = 512;
  cfg.layout.fragment_size = 32;
  cfg.key = BenchKey();
  cfg.backend = backend;
  server::DocumentService service;
  if (!service.Publish("bench", xml, cfg).ok()) return false;
  auto parsed = access::ParseRuleList("+ //Prescription\n");
  if (!parsed.ok()) return false;
  std::vector<access::AccessRule> rules = parsed.take();

  pipeline::ServeOptions opts;
  auto cold = service.Serve("bench", rules, opts);
  auto warm = service.Serve("bench", rules, opts);
  if (!cold.ok() || !warm.ok()) {
    std::fprintf(stderr, "warm_cache: serve failed\n");
    return false;
  }

  bool ok = true;
  if (warm.value().view != cold.value().view) {
    std::fprintf(stderr, "warm_cache: warm view diverges from cold\n");
    ok = false;
  }
  if (warm.value().proof_hashes_shipped != 0 ||
      warm.value().digest_bytes_shipped != 0) {
    std::fprintf(stderr,
                 "warm_cache: warm serve re-shipped integrity material "
                 "(%llu hashes, %llu digest bytes) the shared cache holds\n",
                 static_cast<unsigned long long>(
                     warm.value().proof_hashes_shipped),
                 static_cast<unsigned long long>(
                     warm.value().digest_bytes_shipped));
    ok = false;
  }
  if (warm.value().bare_chunk_reads == 0) {
    std::fprintf(stderr, "warm_cache: no bare chunk reads on a warm serve\n");
    ok = false;
  }
  if (warm.value().wire_bytes * 10 >= cold.value().wire_bytes * 6) {
    std::fprintf(stderr,
                 "warm_cache: warm wire %llu not under 60%% of cold %llu\n",
                 static_cast<unsigned long long>(warm.value().wire_bytes),
                 static_cast<unsigned long long>(cold.value().wire_bytes));
    ok = false;
  }

  auto u64 = [](uint64_t v) { return std::to_string(v); };
  auto emit = [&](const char* name, const pipeline::ServeReport& r) {
    *json += std::string("    \"") + name + "\": {";
    *json += "\"wire_bytes\": " + u64(r.wire_bytes);
    *json += ", \"bytes_fetched\": " + u64(r.bytes_fetched);
    *json += ", \"requests\": " + u64(r.requests);
    *json += ", \"proof_hashes_shipped\": " + u64(r.proof_hashes_shipped);
    *json += ", \"digest_bytes_shipped\": " + u64(r.digest_bytes_shipped);
    *json += ", \"bare_chunk_reads\": " + u64(r.bare_chunk_reads);
    *json += "}";
  };
  *json += "  \"warm_cache\": {\n";
  *json += "    \"document_bytes\": " + u64(xml.size()) + ",\n";
  *json += "    \"chunk_size\": " + u64(cfg.layout.chunk_size) +
           ", \"fragment_size\": " + u64(cfg.layout.fragment_size) + ",\n";
  emit("cold", cold.value());
  *json += ",\n";
  emit("warm", warm.value());
  *json += ",\n    \"warm_under_60_percent\": ";
  *json += warm.value().wire_bytes * 10 < cold.value().wire_bytes * 6
               ? "true"
               : "false";
  *json += "\n  },\n";
  return ok;
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

/// The corpus-generator section: every family at `corpus_bytes`, with its
/// four matched rule families evaluated by a direct SAX pass. Everything
/// here is a pure function of (family, seed, size), so the regression
/// script diffs the counters exactly. In-bench gates: generation is
/// deterministic (regenerating yields byte-identical XML), every corpus
/// reaches its target size, and appending absent-tag rules (the rule-set-
/// size axis of the paper's complexity experiment) never changes a view.
/// Appends a "corpus" JSON array; returns false when a gate fails.
bool RunCorpusSection(std::string* json, uint64_t corpus_bytes) {
  bool ok = true;
  auto u64 = [](uint64_t v) { return std::to_string(v); };
  *json += "  \"corpus\": {\n";
  *json += "    \"target_bytes\": " + u64(corpus_bytes) +
           ", \"seed\": 1,\n    \"families\": [\n";
  const std::vector<bench::CorpusFamily> families = bench::AllFamilies();
  for (size_t i = 0; i < families.size(); ++i) {
    const bench::CorpusFamily family = families[i];
    bench::CorpusSpec spec;
    spec.family = family;
    spec.seed = 1;
    spec.target_bytes = corpus_bytes;
    const bench::Corpus corpus = bench::GenerateCorpus(spec);
    if (bench::GenerateCorpus(spec).xml != corpus.xml) {
      std::fprintf(stderr, "corpus/%s: generation is not deterministic\n",
                   bench::FamilyName(family));
      ok = false;
    }
    if (corpus.xml.size() < corpus_bytes) {
      std::fprintf(stderr, "corpus/%s: %zu bytes under the %llu target\n",
                   bench::FamilyName(family), corpus.xml.size(),
                   static_cast<unsigned long long>(corpus_bytes));
      ok = false;
    }
    *json += std::string("      {\"family\": \"") +
             bench::FamilyName(family) + "\"";
    *json += ", \"document_bytes\": " + u64(corpus.xml.size());
    *json += ", \"records\": " + u64(corpus.records);
    *json += ", \"max_depth\": " + u64(corpus.max_depth);
    *json += ", \"rule_families\": [";
    const std::vector<bench::RuleFamily> rule_families =
        bench::AllRuleFamilies();
    for (size_t r = 0; r < rule_families.size(); ++r) {
      const bench::RuleFamily rf = rule_families[r];
      auto rules = access::ParseRuleList(bench::RulesFor(family, rf));
      auto grown = access::ParseRuleList(
          bench::RulesFor(family, rf, /*extra_absent_rules=*/8));
      if (!rules.ok() || !grown.ok()) {
        std::fprintf(stderr, "corpus/%s/%s: bad rules\n",
                     bench::FamilyName(family), bench::RuleFamilyName(rf));
        return false;
      }
      auto view = DirectView(corpus.xml, rules.value());
      auto grown_view = DirectView(corpus.xml, grown.value());
      if (!view.ok() || !grown_view.ok()) {
        std::fprintf(stderr, "corpus/%s/%s: direct view failed\n",
                     bench::FamilyName(family), bench::RuleFamilyName(rf));
        return false;
      }
      if (view.value() != grown_view.value()) {
        std::fprintf(stderr,
                     "corpus/%s/%s: absent-tag rules changed the view\n",
                     bench::FamilyName(family), bench::RuleFamilyName(rf));
        ok = false;
      }
      *json += std::string("{\"rules\": \"") + bench::RuleFamilyName(rf) +
               "\", \"rule_count\": " + u64(rules.value().size()) +
               ", \"view_bytes\": " + u64(view.value().size()) + "}";
      *json += r + 1 < rule_families.size() ? ", " : "";
    }
    *json += "]}";
    *json += i + 1 < families.size() ? ",\n" : "\n";
  }
  *json += "    ]\n  },\n";
  return ok;
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
/// backend — "3des" (the paper-faithful default), "aes" (AES-NI when the
/// CPU has it), and "aes-portable" (the fallback path pinned on). (2)
/// Attack matrix: flipped ciphertext byte, swapped cipher blocks,
/// transposed chunk digests, and a replayed stale version must each fail
/// closed as a clean IntegrityError on every backend. (3) Perf: a
/// closed_world NC serve of the hospital document per backend — the
/// workload where decrypt dominates — gated on full runs to the PR 7
/// target (AES on AES-NI hardware ≥ 9 MB/s serve rate, 10× the
/// BENCH_PR6 software-3DES baseline). Appends a "backends" JSON object;
/// returns false when a gate fails.
bool RunBackendSection(std::string* json, bool quick,
                       crypto::ChunkLayout layout, int folders) {
  using crypto::CipherBackendKind;
  using crypto::CipherBackendKindName;
  // Every backend serves the same layout here; if the flag-chosen one
  // cannot hold AES blocks (fragment not a multiple of 16), fall back to
  // the default so the cross-backend gates still run.
  if (!layout.Validate(crypto::kMaxCipherBlockSize).ok()) {
    layout = crypto::ChunkLayout{};
    layout.chunk_size = 1024;
    layout.fragment_size = 64;
  }
  const CipherBackendKind kBackends[] = {CipherBackendKind::k3Des,
                                         CipherBackendKind::kAes,
                                         CipherBackendKind::kAesPortable};
  bool ok = true;
  auto u64 = [](uint64_t v) { return std::to_string(v); };

  // (1) Equivalence matrix over generated corpora. Quick mode trims the
  // family list and corpus size so sanitizer smokes stay fast; the gate
  // itself (byte-identical views) is never relaxed.
  const std::vector<bench::CorpusFamily> families =
      quick ? bench::PaperFamilies() : bench::AllFamilies();
  const uint64_t corpus_bytes = quick ? uint64_t{8} << 10
                                      : uint64_t{24} << 10;
  const auto variants = {index::Variant::kNc, index::Variant::kTc,
                         index::Variant::kTcs, index::Variant::kTcsb,
                         index::Variant::kTcsbr};
  uint64_t serves = 0;
  uint64_t view_mismatches = 0;
  for (bench::CorpusFamily family : families) {
    bench::CorpusSpec spec;
    spec.family = family;
    spec.seed = 1;
    spec.target_bytes = corpus_bytes;
    const bench::Corpus corpus = bench::GenerateCorpus(spec);
    for (bench::RuleFamily rf : bench::AllRuleFamilies()) {
      auto rules = access::ParseRuleList(bench::RulesFor(family, rf));
      if (!rules.ok()) return false;
      auto reference = DirectView(corpus.xml, rules.value());
      if (!reference.ok()) return false;
      for (index::Variant v : variants) {
        for (CipherBackendKind backend : kBackends) {
          auto run = RunVariant(corpus.xml, v, rules.value(), layout, backend);
          if (!run.ok()) {
            std::fprintf(stderr, "backends/%s/%s/%s/%s: %s\n",
                         bench::FamilyName(family), bench::RuleFamilyName(rf),
                         VariantName(v), CipherBackendKindName(backend),
                         run.status().ToString().c_str());
            return false;
          }
          ++serves;
          if (run.value().view != reference.value()) {
            std::fprintf(stderr,
                         "backends/%s/%s/%s/%s: authorized view diverges "
                         "from the direct reference\n",
                         bench::FamilyName(family), bench::RuleFamilyName(rf),
                         VariantName(v), CipherBackendKindName(backend));
            ++view_mismatches;
            ok = false;
          }
        }
      }
    }
  }

  // (2) Attack matrix: 4 attacks × 3 backends, every one a clean
  // IntegrityError.
  uint64_t attacks_rejected = 0;
  const uint64_t attacks_total = 4 * (sizeof(kBackends) / sizeof(*kBackends));
  for (CipherBackendKind backend : kBackends) {
    for (int attack = 0; attack < 4; ++attack) {
      if (BackendAttackRejected(backend, attack)) {
        ++attacks_rejected;
      } else {
        static const char* const kAttackNames[] = {
            "tampered_byte", "swapped_blocks", "transposed_digests",
            "stale_version"};
        std::fprintf(stderr,
                     "backends/%s: %s not rejected as a clean "
                     "IntegrityError\n",
                     CipherBackendKindName(backend), kAttackNames[attack]);
        ok = false;
      }
    }
  }

  *json += "  \"backends\": {\n";
  *json += "    \"equivalence\": {\"families\": " + u64(families.size()) +
           ", \"rule_families\": " +
           u64(bench::AllRuleFamilies().size()) +
           ", \"variants\": " + u64(variants.size()) +
           ", \"backends\": [\"3des\", \"aes\", \"aes-portable\"],\n";
  *json += "      \"serves\": " + u64(serves) +
           ", \"views_identical\": " +
           (view_mismatches == 0 ? "true" : "false") +
           ", \"attacks_rejected\": " + u64(attacks_rejected) +
           ", \"attacks_total\": " + u64(attacks_total) +
           ", \"all_attacks_rejected\": " +
           (attacks_rejected == attacks_total ? "true" : "false") + "},\n";

  // (3) Per-backend perf probe: the closed_world NC serve — the whole
  // ciphertext crosses the wire and the SOE decrypts and hashes all of
  // it, so the cipher dominates and the backends are directly
  // comparable. Best of three serves to damp scheduler noise.
  const std::string xml = MakeDocument(folders, /*consults=*/3,
                                       /*analyses=*/4);
  auto parsed = access::ParseRuleList("+ /Hospital/Folder/MedActs\n");
  if (!parsed.ok()) return false;
  std::vector<access::AccessRule> rules = parsed.take();
  *json += "    \"nc_closed_world\": [\n";
  for (size_t b = 0; b < sizeof(kBackends) / sizeof(*kBackends); ++b) {
    const CipherBackendKind backend = kBackends[b];
    VariantRun run;
    NcTimings best;
    for (int rep = 0; rep < 3; ++rep) {
      NcTimings t;
      auto again = RunNc(xml, rules, layout, backend, &t);
      if (!again.ok()) {
        std::fprintf(stderr, "backends/%s: NC serve failed: %s\n",
                     CipherBackendKindName(backend),
                     again.status().ToString().c_str());
        return false;
      }
      if (rep == 0 || t.serve_ns < best.serve_ns) {
        best = t;
        run = again.take();
      }
    }
    auto mbps = [](uint64_t bytes, uint64_t ns) {
      return ns == 0 ? 0.0 : static_cast<double>(bytes) * 1000.0 /
                                 static_cast<double>(ns);
    };
    const double serve_mb_s = mbps(run.encoded_bytes, best.serve_ns);
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "      {\"backend\": \"%s\", \"hardware\": %s, "
                  "\"block_size\": %u, \"document_bytes\": %llu, "
                  "\"serve_ns\": %llu, \"serve_mb_s\": %.1f, "
                  "\"decrypt_mb_s\": %.1f, \"hash_mb_s\": %.1f}",
                  CipherBackendKindName(backend),
                  crypto::CipherBackendHardwareAccelerated(backend) ? "true"
                                                                    : "false",
                  crypto::CipherBackendBlockSize(backend),
                  static_cast<unsigned long long>(run.encoded_bytes),
                  static_cast<unsigned long long>(best.serve_ns), serve_mb_s,
                  mbps(run.bytes_decrypted, best.decrypt_ns),
                  mbps(run.bytes_hashed, best.hash_ns));
    *json += buf;
    *json += b + 1 < sizeof(kBackends) / sizeof(*kBackends) ? ",\n" : "\n";
    // The PR 7 acceptance gate, applied where it is meaningful: a full
    // (non-quick) run on a machine whose AES backend really runs AES-NI.
    if (!quick && backend == CipherBackendKind::kAes &&
        crypto::CipherBackendHardwareAccelerated(backend) &&
        serve_mb_s < 9.0) {
      std::fprintf(stderr,
                   "backends/aes: closed_world NC serve %.1f MB/s under "
                   "the 9 MB/s PR 7 target on AES-NI hardware\n",
                   serve_mb_s);
      ok = false;
    }
  }
  *json += "    ]\n  },\n";
  return ok;
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
/// Appends a "latency_sweep" JSON object; returns false on a gate fail.
bool RunLatencySweep(std::string* json, int folders,
                     crypto::CipherBackendKind backend) {
  const std::string xml = MakeDocument(folders, /*consults=*/3,
                                       /*analyses=*/4);
  auto parsed = access::ParseRuleList("+ /Hospital/Folder/MedActs\n");
  if (!parsed.ok()) return false;
  std::vector<access::AccessRule> rules = parsed.take();
  auto reference = DirectView(xml, rules);
  if (!reference.ok()) return false;

  // ~9600-baud-class serial link: byte time dominates round trips, the
  // regime the paper's SOE targets. Raising this erodes the skip win at
  // high RTT (skip pays more round trips); the gate documents the trade.
  constexpr uint64_t kBandwidthBytesPerS = 8192;
  const uint64_t kRttMs[] = {0, 1, 10};

  bool ok = true;
  auto u64 = [](uint64_t v) { return std::to_string(v); };
  *json += "  \"latency_sweep\": {\n";
  *json += "    \"scenario\": \"closed_world\", \"skip_variant\": \"tcsbr\","
           " \"stream_all_variant\": \"nc\",\n";
  *json += "    \"document_bytes\": " + u64(xml.size()) +
           ", \"bandwidth_bytes_per_s\": " + u64(kBandwidthBytesPerS) +
           ",\n    \"points\": [\n";
  for (size_t p = 0; p < 3; ++p) {
    const uint64_t rtt_ns = kRttMs[p] * 1'000'000ULL;
    server::DocumentConfig cfg;
    cfg.variant = index::Variant::kTcsbr;
    cfg.layout.chunk_size = 1024;
    cfg.layout.fragment_size = 64;
    cfg.key = BenchKey();
    cfg.backend = backend;
    server::DocumentService service;
    if (!service.Publish("sweep_skip", xml, cfg).ok()) {
      std::fprintf(stderr, "latency_sweep: publish failed\n");
      return false;
    }
    // The stream-all side is the NC image — the raw text in a
    // SecureDocumentStore, no structure index — registered on the same
    // terminal. (NC has no pipeline encoding, so ServeStreamAll serves
    // it: fetch everything, SAX-filter in the SOE.)
    std::vector<uint8_t> raw(xml.begin(), xml.end());
    auto nc_build = crypto::SecureDocumentStore::Build(
        raw, BenchKey(), cfg.layout, /*version=*/0, backend);
    if (!nc_build.ok()) return false;
    auto nc_store =
        std::make_shared<crypto::SecureDocumentStore>(nc_build.take());
    net::TerminalServer server;
    auto link = service.TerminalLink("sweep_skip");
    if (!link.ok()) return false;
    server.RegisterDocument("sweep_skip", link.take());
    server.RegisterDocument("sweep_full", nc_store);
    if (!server.Start().ok()) return false;
    net::FaultProxy::Options proxy_opts;
    proxy_opts.upstream_port = server.port();
    proxy_opts.rtt_ns = rtt_ns;
    proxy_opts.bandwidth_bytes_per_s = kBandwidthBytesPerS;
    net::FaultProxy proxy(proxy_opts);
    if (!proxy.Start().ok()) return false;
    // Pacing stretches every response; the sweep measures latency, it
    // must never trip deadlines into retries.
    net::RemoteBatchSource::Options ropts;
    ropts.port = proxy.port();
    ropts.doc_id = "sweep_skip";
    ropts.deadline_ns = 30'000'000'000ULL;
    if (!service
             .AttachTransport("sweep_skip",
                              std::make_shared<net::RemoteBatchSource>(ropts))
             .ok()) {
      return false;
    }
    // On a slow link every round trip is expensive, so the SOE spends
    // response buffer to save them: a 16 KB batch horizon (vs the
    // default four chunks) — still smartcard-plausible RAM — applied to
    // BOTH modes, so the comparison stays fair.
    index::PlannerOptions planner;
    planner.max_batch_bytes = 16 << 10;

    struct Timed {
      uint64_t wall_ns = 0;
      uint64_t wire_bytes = 0;
      uint64_t requests = 0;
      uint64_t retries = 0;
      std::string view;
    };
    auto run_skip = [&]() -> Result<Timed> {
      pipeline::ServeOptions opts{/*skip=*/true, UINT64_MAX};
      opts.planner = planner;
      const uint64_t t0 = NowNs();
      CSXA_ASSIGN_OR_RETURN(pipeline::ServeReport report,
                            service.Serve("sweep_skip", rules, opts));
      Timed t;
      t.wall_ns = NowNs() - t0;
      t.wire_bytes = report.wire_bytes;
      t.requests = report.requests;
      t.retries = report.retries;
      t.view = std::move(report.view);
      return t;
    };
    auto run_stream_all = [&]() -> Result<Timed> {
      net::RemoteBatchSource::Options full_opts = ropts;
      full_opts.doc_id = "sweep_full";
      net::RemoteBatchSource remote(full_opts);
      NcTimings timings;
      CSXA_ASSIGN_OR_RETURN(VariantRun run,
                            ServeStreamAll(&remote, *nc_store, rules, backend,
                                           planner, &timings));
      Timed t;
      t.wall_ns = timings.serve_ns;
      t.wire_bytes = run.wire_bytes;
      t.requests = run.requests;
      t.retries = remote.transport_stats().retries;
      t.view = std::move(run.view);
      return t;
    };
    auto full = run_stream_all();
    auto skip = run_skip();
    (void)service.AttachTransport("sweep_skip", nullptr);
    proxy.Stop();
    server.Stop();
    if (!full.ok() || !skip.ok()) {
      std::fprintf(stderr, "latency_sweep/%llums: serve failed: %s\n",
                   static_cast<unsigned long long>(kRttMs[p]),
                   (full.ok() ? skip : full).status().ToString().c_str());
      return false;
    }
    if (skip.value().view != reference.value() ||
        full.value().view != reference.value()) {
      std::fprintf(stderr,
                   "latency_sweep/%llums: remote view diverges from the "
                   "direct SAX pass\n",
                   static_cast<unsigned long long>(kRttMs[p]));
      ok = false;
    }
    const bool wins_wire = skip.value().wire_bytes < full.value().wire_bytes;
    const bool wins_wall = skip.value().wall_ns < full.value().wall_ns;
    if (!wins_wire || !wins_wall) {
      std::fprintf(
          stderr,
          "latency_sweep/%llums: skip must beat stream-all on wire AND "
          "wall clock (wire %llu vs %llu, wall %.1f ms vs %.1f ms)\n",
          static_cast<unsigned long long>(kRttMs[p]),
          static_cast<unsigned long long>(skip.value().wire_bytes),
          static_cast<unsigned long long>(full.value().wire_bytes),
          skip.value().wall_ns / 1e6, full.value().wall_ns / 1e6);
      ok = false;
    }
    auto emit = [&](const char* name, const Timed& t) {
      *json += std::string("\"") + name + "\": {\"wire_bytes\": " +
               u64(t.wire_bytes) + ", \"requests\": " + u64(t.requests) +
               ", \"retries\": " + u64(t.retries) +
               ", \"wall_ns\": " + u64(t.wall_ns) + "}";
    };
    *json += "      {\"rtt_ms\": " + u64(kRttMs[p]) + ", ";
    emit("stream_all", full.value());
    *json += ", ";
    emit("tcsbr_skip", skip.value());
    *json += ", \"skip_wins_wire\": ";
    *json += wins_wire ? "true" : "false";
    *json += ", \"skip_wins_wall_clock\": ";
    *json += wins_wall ? "true" : "false";
    *json += "}";
    *json += p + 1 < 3 ? ",\n" : "\n";
  }
  *json += "    ]\n  },\n";
  return ok;
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
/// Appends a "fault_matrix" JSON object; returns false on a gate fail.
bool RunFaultMatrix(std::string* json) {
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
  if (!parsed.ok()) return false;
  std::vector<access::AccessRule> rules = parsed.take();
  auto reference = DirectView(xml, rules);
  if (!reference.ok()) return false;

  bool ok = true;
  uint64_t view_mismatches = 0;
  uint64_t contract_violations = 0;
  auto u64 = [](uint64_t v) { return std::to_string(v); };
  *json += "  \"fault_matrix\": {\n    \"cells\": [\n";
  bool first_cell = true;
  for (const FaultCase& fc : kCases) {
    for (crypto::CipherBackendKind backend :
         {crypto::CipherBackendKind::k3Des,
          crypto::CipherBackendKind::kAes}) {
      for (bool warm : {false, true}) {
        const std::string cell =
            std::string(fc.name) + "/" +
            crypto::CipherBackendKindName(backend) +
            (warm ? "/warm" : "/cold");
        server::DocumentConfig cfg;
        cfg.variant = index::Variant::kTcsbr;
        cfg.layout.chunk_size = 256;
        cfg.layout.fragment_size = 32;
        cfg.key = BenchKey();
        cfg.backend = backend;
        server::DocumentService service;
        if (!service.Publish("doc", xml, cfg).ok()) return false;
        net::TerminalServer server;
        auto link = service.TerminalLink("doc");
        if (!link.ok()) return false;
        server.RegisterDocument("doc", link.take());
        if (!server.Start().ok()) return false;

        net::RemoteBatchSource::Options ropts;
        ropts.doc_id = "doc";
        ropts.deadline_ns = 250'000'000;
        ropts.max_attempts = 4;
        ropts.backoff_initial_ns = 1'000'000;
        ropts.backoff_max_ns = 8'000'000;

        if (warm) {
          // Prime the shared digest cache over a clean remote path.
          ropts.port = server.port();
          if (!service
                   .AttachTransport(
                       "doc",
                       std::make_shared<net::RemoteBatchSource>(ropts))
                   .ok()) {
            return false;
          }
          auto primed = service.Serve("doc", rules, pipeline::ServeOptions{});
          if (!primed.ok() || primed.value().view != reference.value()) {
            std::fprintf(stderr, "fault_matrix/%s: priming serve failed\n",
                         cell.c_str());
            return false;
          }
          (void)service.AttachTransport("doc", nullptr);
        }

        net::FaultProxy::Options proxy_opts;
        proxy_opts.upstream_port = server.port();
        // Response 0 is the bind ack; 1 is the first real batch response.
        proxy_opts.program = {{fc.fault, /*response_index=*/1, fc.arg}};
        net::FaultProxy proxy(proxy_opts);
        if (!proxy.Start().ok()) return false;
        ropts.port = proxy.port();
        if (!service
                 .AttachTransport(
                     "doc", std::make_shared<net::RemoteBatchSource>(ropts))
                 .ok()) {
          return false;
        }

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
            ok = false;
          } else if (fc.survivable) {
            outcome = "retried_success";
          } else {
            // Tampering should not have produced a view at all — even a
            // correct one (a retry that re-verified) breaks the terminal
            // contract this matrix pins.
            outcome = "UNEXPECTED_VIEW";
            ++contract_violations;
            ok = false;
          }
        } else {
          const StatusCode code = report.status().code();
          const bool contracted =
              code == StatusCode::kIntegrityError ||
              code == StatusCode::kUnavailable ||
              code == StatusCode::kDeadlineExceeded;
          if (!contracted) {
            outcome = "UNCONTRACTED_ERROR";
            ++contract_violations;
            ok = false;
          } else if (fc.survivable) {
            outcome = "UNEXPECTED_FAILURE";
            ++contract_violations;
            ok = false;
          } else if (code != StatusCode::kIntegrityError) {
            outcome = "WRONG_ERROR_CLASS";
            ++contract_violations;
            ok = false;
          } else {
            outcome = "integrity_error";
          }
        }
        if (outcome[0] >= 'A' && outcome[0] <= 'Z') {
          std::fprintf(stderr, "fault_matrix/%s: %s (%s)\n", cell.c_str(),
                       outcome,
                       report.ok() ? "serve returned a view"
                                   : report.status().ToString().c_str());
        }
        if (proxy.faults_fired() != 1) {
          std::fprintf(stderr,
                       "fault_matrix/%s: programmed fault fired %llu times,"
                       " not once\n",
                       cell.c_str(),
                       static_cast<unsigned long long>(proxy.faults_fired()));
          ok = false;
        }

        *json += first_cell ? "" : ",\n";
        first_cell = false;
        *json += std::string("      {\"fault\": \"") + fc.name +
                 "\", \"backend\": \"" +
                 crypto::CipherBackendKindName(backend) + "\", \"cache\": \"" +
                 (warm ? "warm" : "cold") + "\", \"outcome\": \"" + outcome +
                 "\", \"retries\": " + u64(retries) +
                 ", \"reconnects\": " + u64(reconnects) + "}";

        (void)service.AttachTransport("doc", nullptr);
        proxy.Stop();
        server.Stop();
      }
    }
  }
  *json += "\n    ],\n";
  *json += "    \"view_mismatches\": " + u64(view_mismatches) + ",\n";
  *json += "    \"contract_violations\": " + u64(contract_violations) +
           "\n  },\n";
  return ok;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void AppendVariantJson(std::string* json, const VariantRun& run,
                       bool view_matches) {
  auto u64 = [](uint64_t v) { return std::to_string(v); };
  *json += "        {\"variant\": \"";
  *json += index::VariantName(run.variant);
  *json += "\", \"encoded_bytes\": " + u64(run.encoded_bytes);
  *json += ", \"wire_bytes\": " + u64(run.wire_bytes);
  *json += ", \"wire_bytes_full_stream\": " + u64(run.wire_bytes_full);
  *json += ", \"bytes_fetched\": " + u64(run.bytes_fetched);
  *json += ", \"bytes_decrypted\": " + u64(run.bytes_decrypted);
  *json += ", \"bytes_hashed\": " + u64(run.bytes_hashed);
  *json += ", \"requests\": " + u64(run.requests);
  *json += ", \"segments\": " + u64(run.segments);
  *json += ", \"bare_chunk_reads\": " + u64(run.bare_chunk_reads);
  *json += ", \"proof_hashes_shipped\": " + u64(run.proof_hashes_shipped);
  *json += ", \"digest_bytes_shipped\": " + u64(run.digest_bytes_shipped);
  *json += ", \"gap_fragments_bridged\": " + u64(run.gap_fragments_bridged);
  *json += ", \"subtree_skips\": " + u64(run.skips);
  *json += ", \"skipped_encoded_bytes\": " + u64(run.skipped_bytes);
  *json += ", \"events_in\": " + u64(run.events_in);
  *json += ", \"peak_buffered\": " + u64(run.peak_buffered);
  *json += ", \"peak_buffered_bytes\": " + u64(run.peak_buffered_bytes);
  *json += ", \"deferrals\": " + u64(run.deferrals);
  *json += ", \"rereads\": " + u64(run.rereads);
  *json += ", \"reread_bytes\": " + u64(run.reread_bytes);
  *json += ", \"reread_decoded_bytes\": " + u64(run.reread_decoded_bytes);
  *json += ", \"view_matches_reference\": ";
  *json += view_matches ? "true" : "false";
  *json += "}";
}

}  // namespace

int main(int argc, char** argv) {
  int folders = 12;
  bool quick = false;
  std::string out_path;
  std::string corpus_name;
  uint64_t corpus_source_bytes = 1 << 16;
  crypto::ChunkLayout layout;
  layout.chunk_size = 1024;
  layout.fragment_size = 64;
  crypto::CipherBackendKind backend = crypto::CipherBackendKind::k3Des;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
      folders = 4;
    } else if (arg == "--backend" && i + 1 < argc) {
      auto kind = crypto::ParseCipherBackendName(argv[++i]);
      if (!kind.ok()) {
        std::fprintf(stderr, "csxa_bench: %s\n",
                     kind.status().message().c_str());
        return 2;
      }
      backend = kind.value();
    } else if (arg == "--folders" && i + 1 < argc) {
      folders = std::atoi(argv[++i]);
      if (folders <= 0) folders = 1;
    } else if (arg == "--chunk" && i + 1 < argc) {
      layout.chunk_size = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--fragment" && i + 1 < argc) {
      layout.fragment_size = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--corpus" && i + 1 < argc) {
      corpus_name = argv[++i];
    } else if (arg == "--corpus-bytes" && i + 1 < argc) {
      corpus_source_bytes = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: csxa_bench [--quick] [--folders N] [--chunk N] "
                   "[--fragment N] [--backend 3des|aes|aes-portable] "
                   "[--corpus FAMILY [--corpus-bytes N]] [--out FILE]\n");
      return 2;
    }
  }
  if (!layout.Validate(crypto::CipherBackendBlockSize(backend)).ok()) {
    std::fprintf(stderr,
                 "csxa_bench: invalid --chunk/--fragment layout for the %s "
                 "backend\n",
                 crypto::CipherBackendKindName(backend));
    return 2;
  }
  // Only a standard-source run may default to the committed baseline name;
  // an exploratory --corpus run that forgot --out must not clobber it.
  if (out_path.empty())
    out_path = corpus_name.empty() ? "BENCH_PR9.json" : "bench_corpus.json";

  // The scenario matrix source: the hand-built hospital document (whose
  // shape the strict pruning gates assume), or — exploratory — a generated
  // corpus with its matched rule families.
  const bool standard_source = corpus_name.empty();
  std::string xml;
  bench::CorpusFamily corpus_family = bench::CorpusFamily::kHospital;
  if (standard_source) {
    xml = MakeDocument(folders, /*consults=*/3, /*analyses=*/4);
  } else {
    auto family = bench::ParseFamily(corpus_name);
    if (!family.ok()) {
      std::fprintf(stderr, "csxa_bench: %s\n",
                   family.status().message().c_str());
      return 2;
    }
    corpus_family = family.value();
    bench::CorpusSpec spec;
    spec.family = corpus_family;
    spec.target_bytes = corpus_source_bytes;
    xml = bench::GenerateCorpus(spec).xml;
  }

  const auto variants = {index::Variant::kNc, index::Variant::kTc,
                         index::Variant::kTcs, index::Variant::kTcsb,
                         index::Variant::kTcsbr};

  std::string json = "{\n  \"benchmark\": \"csxa_skip_navigation\",\n";
  json += "  \"pr\": 9,\n";
  json += "  \"config\": {\"source\": \"" +
          (standard_source ? std::string("hospital_builtin")
                           : JsonEscape(corpus_name)) +
          "\", \"folders\": " + std::to_string(folders) +
          ", \"document_bytes\": " + std::to_string(xml.size()) +
          ", \"chunk_size\": " + std::to_string(layout.chunk_size) +
          ", \"fragment_size\": " + std::to_string(layout.fragment_size) +
          ", \"backend\": \"" +
          crypto::CipherBackendKindName(backend) +
          "\", \"backend_hardware\": " +
          (crypto::CipherBackendHardwareAccelerated(backend) ? "true"
                                                             : "false") +
          "},\n  \"scenarios\": [\n";

  bool ok = true;
  std::vector<Scenario> scenarios;
  if (standard_source) {
    scenarios = Scenarios();
  } else {
    // A generated corpus brings its own matched rule families; the strict
    // pruning expectations are calibrated to the hand-built document, so
    // scenario-level gates stay off (cost-model gates still apply).
    for (bench::RuleFamily rf : bench::AllRuleFamilies()) {
      scenarios.push_back({bench::RuleFamilyName(rf),
                           bench::RulesFor(corpus_family, rf),
                           /*bitmap_pruning=*/false, /*size_pruning=*/false});
    }
  }
  for (size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& sc = scenarios[s];
    auto parsed = access::ParseRuleList(sc.rules_text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s: bad rules: %s\n", sc.name.c_str(),
                   parsed.status().ToString().c_str());
      return 2;
    }
    std::vector<access::AccessRule> rules = parsed.take();

    std::vector<VariantRun> runs;
    for (index::Variant v : variants) {
      auto run = RunVariant(xml, v, rules, layout, backend);
      if (!run.ok()) {
        std::fprintf(stderr, "%s/%s: %s\n", sc.name.c_str(), VariantName(v),
                     run.status().ToString().c_str());
        return 2;
      }
      runs.push_back(std::move(run.value()));
    }

    const std::string& reference = runs.front().view;  // NC
    json += "    {\"name\": \"" + JsonEscape(sc.name) + "\",";
    json += " \"rules\": " + std::to_string(rules.size()) + ",";
    json += " \"view_bytes\": " + std::to_string(reference.size()) + ",";
    json += " \"bitmap_pruning\": ";
    json += sc.bitmap_pruning ? "true" : "false";
    json += ", \"variants\": [\n";
    for (size_t r = 0; r < runs.size(); ++r) {
      bool matches = runs[r].view == reference;
      if (!matches) {
        std::fprintf(stderr, "%s/%s: authorized view diverges from NC\n",
                     sc.name.c_str(), VariantName(runs[r].variant));
        ok = false;
      }
      AppendVariantJson(&json, runs[r], matches);
      json += r + 1 < runs.size() ? ",\n" : "\n";
    }
    json += "      ]}";
    json += s + 1 < scenarios.size() ? ",\n" : "\n";

    // The paper's claim, enforced: index metadata must pay for itself.
    auto run_for = [&runs](index::Variant v) -> const VariantRun& {
      for (const VariantRun& r : runs) {
        if (r.variant == v) return r;
      }
      return runs.front();  // Unreachable: all variants always run.
    };
    const VariantRun& tc = run_for(index::Variant::kTc);
    const VariantRun& tcs = run_for(index::Variant::kTcs);
    for (const VariantRun& rich : runs) {
      if (rich.variant != index::Variant::kTcsb &&
          rich.variant != index::Variant::kTcsbr) {
        continue;
      }
      if (sc.bitmap_pruning &&
          (rich.wire_bytes >= tcs.wire_bytes ||
           rich.bytes_decrypted >= tcs.bytes_decrypted)) {
        std::fprintf(stderr,
                     "%s/%s: expected strictly fewer wire/decrypted bytes "
                     "than TCS (wire %llu vs %llu, decrypted %llu vs %llu)\n",
                     sc.name.c_str(), VariantName(rich.variant),
                     static_cast<unsigned long long>(rich.wire_bytes),
                     static_cast<unsigned long long>(tcs.wire_bytes),
                     static_cast<unsigned long long>(rich.bytes_decrypted),
                     static_cast<unsigned long long>(tcs.bytes_decrypted));
        ok = false;
      }
    }
    // Skip-mode cost sanity, whole matrix (PR 5): a skip-enabled serve may
    // never pay more wire than full streaming of the same variant beyond
    // the per-chunk digest slack — the planner's proof-aware hole filling
    // and stream-all fallback exist to guarantee it. (Full streaming ships
    // one encrypted digest per chunk too, but chunk-touch order can shift
    // which serves trim them, hence the slack — sized to the backend's
    // digest ciphertext, 24 bytes for 3DES and 32 for AES.)
    const uint64_t digest_bytes =
        crypto::DigestCipherBytes(crypto::CipherBackendBlockSize(backend));
    for (const VariantRun& run : runs) {
      const uint64_t chunks =
          (run.encoded_bytes + layout.chunk_size - 1) / layout.chunk_size;
      const uint64_t slack = chunks * digest_bytes;
      if (run.wire_bytes > run.wire_bytes_full + slack) {
        std::fprintf(stderr,
                     "%s/%s: skip-mode wire %llu exceeds full streaming "
                     "%llu + %llu slack (cost-model inversion)\n",
                     sc.name.c_str(), VariantName(run.variant),
                     static_cast<unsigned long long>(run.wire_bytes),
                     static_cast<unsigned long long>(run.wire_bytes_full),
                     static_cast<unsigned long long>(slack));
        ok = false;
      }
    }
    if (sc.size_pruning && tcs.wire_bytes >= tc.wire_bytes) {
      std::fprintf(stderr,
                   "%s: expected TCS to transfer strictly less than TC "
                   "(%llu vs %llu)\n",
                   sc.name.c_str(),
                   static_cast<unsigned long long>(tcs.wire_bytes),
                   static_cast<unsigned long long>(tc.wire_bytes));
      ok = false;
    }
    // Batched-fetch gate (PR 4): the integrity protocol must not invert
    // the cost model. TC — which streams everything — must stay within a
    // handful of coalesced round trips and under raw NC's wire bytes
    // (proofs amortized per chunk, not per request).
    const VariantRun& nc = run_for(index::Variant::kNc);
    if (standard_source && sc.name == "closed_world" &&
        (tc.requests > 40 || tc.wire_bytes >= nc.wire_bytes)) {
      std::fprintf(stderr,
                   "%s: batched fetch regressed on TC (%llu requests, "
                   "wire %llu vs NC %llu)\n",
                   sc.name.c_str(),
                   static_cast<unsigned long long>(tc.requests),
                   static_cast<unsigned long long>(tc.wire_bytes),
                   static_cast<unsigned long long>(nc.wire_bytes));
      ok = false;
    }
  }

  json += "  ],\n";
  if (!RunDeferredMode(&json, layout, backend)) ok = false;
  if (!RunWarmCache(&json, folders, backend)) ok = false;
  if (!RunBackendSection(&json, quick, layout, folders)) ok = false;
  // Transport sections (PR 9): skip navigation priced across a slow
  // link, and the fault matrix served through the programmed proxy.
  if (!RunLatencySweep(&json, folders, backend)) ok = false;
  if (!RunFaultMatrix(&json)) ok = false;
  // Corpus-scale section: the seeded generator across every family. Quick
  // mode (the ctest smoke) shrinks it to keep sanitizer runs fast; the
  // default run is what BENCH_PR9.json commits and CI gates.
  if (!RunCorpusSection(&json, quick ? uint64_t{16} << 10
                                     : uint64_t{64} << 10)) {
    ok = false;
  }
  json += "  \"checks_passed\": ";
  json += ok ? "true" : "false";
  json += "\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 2;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("%s%s written to %s\n", ok ? "" : "CHECKS FAILED; ",
              "benchmark results", out_path.c_str());
  return ok ? 0 : 1;
}

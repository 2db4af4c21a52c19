// Server-layer tests: one DocumentService must serve many concurrent
// SecureSessions byte-identically to single-session serves, the shared
// per-(document, version) verified-digest cache must make every session
// after the first warm (trimmed proofs, bare re-reads, zero re-shipped
// tree hashes) without weakening integrity, and a version bump must fail
// stale sessions closed while fresh sessions see the new digests — even
// when the bump races in-flight serves.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "access/access_rule.h"
#include "batch_read.h"
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
    key[i] = static_cast<uint8_t>(0x9e ^ (i * 17));
  }
  return key;
}

std::string Payload(const char* stem, int i, size_t n) {
  std::string s = std::string(stem) + "-" + std::to_string(i) + "-";
  while (s.size() < n) s += "loremipsum";
  s.resize(n);
  return s;
}

/// Folder set with bulky denied subtrees, needle grants, and a trailing
/// clearance predicate; `tag` varies the payload text (same length) so
/// document versions differ in content but not geometry.
std::string TestDocument(int folders, const char* tag = "v0") {
  std::string xml = "<Hospital>";
  for (int f = 0; f < folders; ++f) {
    xml += "<Folder><Admin>";
    xml += "<Name>" + Payload(tag, f, 16) + "</Name>";
    xml += "<Insurance>" + Payload(tag, f + 100, 160) + "</Insurance>";
    xml += "</Admin><MedActs>";
    for (int c = 0; c < 3; ++c) {
      xml += "<Consult><Diagnostic>" + Payload(tag, f * 10 + c, 56) +
             "</Diagnostic><Prescription>rx-" + std::to_string(f * 10 + c) +
             "</Prescription></Consult>";
    }
    xml += "</MedActs>";
    xml += std::string("<Clearance>") + (f % 2 ? "closed" : "open") +
           "</Clearance></Folder>";
  }
  xml += "</Hospital>";
  return xml;
}

const char* const kRuleSets[] = {
    "+ /Hospital/Folder/MedActs\n",
    "+ //Prescription\n",
    "+ /Hospital/Folder[Clearance = open]/MedActs\n",
};

using csxa::testing::DirectView;

server::DocumentConfig TestConfig(index::Variant variant) {
  server::DocumentConfig cfg;
  cfg.variant = variant;
  cfg.layout.chunk_size = 256;
  cfg.layout.fragment_size = 32;
  cfg.key = TestKey();
  return cfg;
}

// ---------------------------------------------------------------------------
// Concurrency stress: N threads, mixed rulesets/variants/budgets, one
// service — every view byte-identical to the single-session reference.
// ---------------------------------------------------------------------------

TEST(ConcurrentServesMatchSingleSessionViews) {
  const std::string xml = TestDocument(/*folders=*/6);
  server::DocumentService service;
  CHECK_OK(service.Publish("tcsbr", xml, TestConfig(index::Variant::kTcsbr)));
  CHECK_OK(service.Publish("tcs", xml, TestConfig(index::Variant::kTcs)));

  struct Expected {
    std::vector<access::AccessRule> rules;
    std::string view;
  };
  std::vector<Expected> expected;
  for (const char* rules_text : kRuleSets) {
    auto parsed = access::ParseRuleList(rules_text);
    CHECK_OK(parsed.status());
    if (!parsed.ok()) return;
    Expected e;
    e.rules = parsed.take();
    e.view = DirectView(xml, e.rules);
    expected.push_back(std::move(e));
  }

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 6;
  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t]() {
      for (int i = 0; i < kItersPerThread; ++i) {
        const Expected& e = expected[(t + i) % expected.size()];
        pipeline::ServeOptions opts;
        // Mix strategies: every other serve forces deferrals + re-reads.
        opts.pending_buffer_budget = (t + i) % 2 == 0 ? UINT64_MAX : 64;
        const char* doc = (t + i) % 3 == 0 ? "tcs" : "tcsbr";
        auto report = service.Serve(doc, e.rules, opts);
        if (!report.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (report.value().view != e.view) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  CHECK_EQ(failures.load(), 0);
  CHECK_EQ(mismatches.load(), 0);

  // The shared cache actually got exercised across sessions.
  auto stats = service.CacheStats("tcsbr");
  CHECK_OK(stats.status());
  if (stats.ok()) {
    CHECK(stats.value().records > 0);
    CHECK(stats.value().bare_hits > 0);
  }
}

// ---------------------------------------------------------------------------
// Reused per-round-trip storage (the fetcher's batch scratch, the planner's
// run list, the terminal link's pooled frames) must carry nothing from one
// session into another: sessions pulled alternately on one thread serve
// exactly what each serves alone.
// ---------------------------------------------------------------------------

TEST(InterleavedSessionsMatchTheirDrainedAloneServes) {
  server::DocumentService service;
  // Private per-serve caches: a session's requests and wire bytes then do
  // not depend on which serves ran before it.
  server::DocumentConfig a_cfg = TestConfig(index::Variant::kTcsbr);
  a_cfg.shared_cache_capacity = 0;
  server::DocumentConfig b_cfg = TestConfig(index::Variant::kTcs);
  b_cfg.shared_cache_capacity = 0;
  b_cfg.layout.chunk_size = 512;
  b_cfg.layout.fragment_size = 64;
  CHECK_OK(service.Publish("a", TestDocument(6, "va"), a_cfg));
  CHECK_OK(service.Publish("b", TestDocument(9, "vb"), b_cfg));

  struct Serve {
    const char* doc;
    std::vector<access::AccessRule> rules;
    uint64_t budget;
    std::string view;
    uint64_t requests = 0;
    uint64_t wire_bytes = 0;
  };
  // Two sessions on "a" share its terminal link; "b" differs in document,
  // layout, variant and rules. One tight budget forces deferral re-reads.
  const struct {
    const char* doc;
    const char* rules;
    uint64_t budget;
  } kServes[] = {
      {"a", kRuleSets[0], UINT64_MAX},
      {"b", kRuleSets[1], UINT64_MAX},
      {"a", kRuleSets[2], 64},
  };
  std::vector<Serve> alone;
  for (const auto& spec : kServes) {
    auto rules = access::ParseRuleList(spec.rules);
    CHECK_OK(rules.status());
    if (!rules.ok()) return;
    Serve serve{spec.doc, rules.take(), spec.budget, "", 0, 0};
    pipeline::ServeOptions opts;
    opts.pending_buffer_budget = spec.budget;
    auto session = service.OpenSession(serve.doc, serve.rules, opts);
    CHECK_OK(session.status());
    if (!session.ok()) return;
    auto report = session.value()->Drain();
    CHECK_OK(report.status());
    if (!report.ok()) return;
    serve.view = report.value().view;
    serve.requests = session.value()->stream().fetcher().requests();
    serve.wire_bytes = session.value()->stream().fetcher().wire_bytes();
    CHECK(serve.requests > 1);
    alone.push_back(std::move(serve));
  }

  std::vector<std::unique_ptr<server::SecureSession>> sessions;
  std::vector<xml::SerializingHandler> out(alone.size());
  for (const Serve& serve : alone) {
    pipeline::ServeOptions opts;
    opts.pending_buffer_budget = serve.budget;
    auto session = service.OpenSession(serve.doc, serve.rules, opts);
    CHECK_OK(session.status());
    if (!session.ok()) return;
    sessions.push_back(session.take());
  }
  std::vector<bool> done(alone.size(), false);
  size_t finished = 0;
  while (finished < alone.size()) {
    for (size_t i = 0; i < sessions.size(); ++i) {
      if (done[i]) continue;
      auto item = sessions[i]->Next();
      CHECK_OK(item.status());
      if (!item.ok()) return;
      if (item.value().end) {
        done[i] = true;
        ++finished;
        continue;
      }
      out[i].Feed(item.value().event, item.value().depth);
    }
  }
  for (size_t i = 0; i < alone.size(); ++i) {
    CHECK(out[i].output() == alone[i].view);
    CHECK_EQ(sessions[i]->stream().fetcher().requests(), alone[i].requests);
    CHECK_EQ(sessions[i]->stream().fetcher().wire_bytes(),
             alone[i].wire_bytes);
  }
}

// ---------------------------------------------------------------------------
// Warm-cache economics: the second session of a document pays no material.
// ---------------------------------------------------------------------------

TEST(WarmSessionShipsNoIntegrityMaterial) {
  const std::string xml = TestDocument(/*folders=*/6);
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", xml, TestConfig(index::Variant::kTcsbr)));
  auto rules = access::ParseRuleList("+ //Prescription\n").take();
  const std::string expected = DirectView(xml, rules);

  pipeline::ServeOptions opts;
  auto cold = service.Serve("doc", rules, opts);
  auto warm = service.Serve("doc", rules, opts);
  CHECK_OK(cold.status());
  CHECK_OK(warm.status());
  if (!cold.ok() || !warm.ok()) return;
  CHECK_EQ(cold.value().view, expected);
  CHECK_EQ(warm.value().view, expected);
  // Cold pays the material once; warm serves fully from the shared cache:
  // zero tree hashes, zero digests re-shipped, strictly less wire.
  CHECK(cold.value().proof_hashes_shipped > 0 ||
        cold.value().digest_bytes_shipped > 0);
  CHECK_EQ(warm.value().proof_hashes_shipped, uint64_t{0});
  CHECK_EQ(warm.value().digest_bytes_shipped, uint64_t{0});
  CHECK(warm.value().bare_chunk_reads > 0);
  CHECK(warm.value().wire_bytes < cold.value().wire_bytes);
}

TEST(WarmDeferralRereadsAreBare) {
  // Satellite: splicer re-reads ride the planner and, on a warm shared
  // cache, verify bare — and the reread accounting reports bytes actually
  // pulled, which never exceed the decoded span.
  const std::string xml = TestDocument(/*folders=*/6);
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", xml, TestConfig(index::Variant::kTcsbr)));
  auto rules =
      access::ParseRuleList("+ /Hospital/Folder[Clearance = open]/MedActs\n")
          .take();
  const std::string expected = DirectView(xml, rules);

  pipeline::ServeOptions opts;
  opts.pending_buffer_budget = 64;  // Force deferrals + re-reads.
  auto cold = service.Serve("doc", rules, opts);
  auto warm = service.Serve("doc", rules, opts);
  CHECK_OK(cold.status());
  CHECK_OK(warm.status());
  if (!cold.ok() || !warm.ok()) return;
  CHECK_EQ(warm.value().view, expected);
  CHECK(warm.value().drive.rereads > 0);
  CHECK_EQ(warm.value().proof_hashes_shipped, uint64_t{0});
  CHECK_EQ(warm.value().digest_bytes_shipped, uint64_t{0});
  // Honest accounting: fetched re-read bytes are real and bounded by the
  // decoded span (boundary fragments already held are not re-billed).
  CHECK(warm.value().drive.reread_fetched_bytes > 0);
  CHECK(cold.value().drive.reread_fetched_bytes <=
        (cold.value().drive.reread_bits + 7) / 8 +
            2 * 32 * cold.value().drive.rereads);  // fragment-rounding slack
}

TEST(ZeroSharedCapacityServesColdWithPrivateCaches) {
  // shared_cache_capacity = 0 publishes without a shared cache: each serve
  // builds a private one of ServeOptions::digest_cache_capacity entries,
  // so deferral re-reads still verify bare while nothing carries over from
  // one serve to the next.
  const std::string xml = TestDocument(/*folders=*/6);
  auto rules =
      access::ParseRuleList("+ /Hospital/Folder[Clearance = open]/MedActs\n")
          .take();
  server::DocumentConfig cold_cfg = TestConfig(index::Variant::kTcsbr);
  cold_cfg.shared_cache_capacity = 0;
  server::DocumentConfig shared_cfg = TestConfig(index::Variant::kTcsbr);
  shared_cfg.shared_cache_capacity = 128;
  server::DocumentService service;
  CHECK_OK(service.Publish("cold", xml, cold_cfg));
  CHECK_OK(service.Publish("shared", xml, shared_cfg));

  pipeline::ServeOptions opts;
  opts.pending_buffer_budget = 64;  // Force deferrals + re-reads.
  auto first = service.Serve("cold", rules, opts);
  auto second = service.Serve("cold", rules, opts);
  auto shared = service.Serve("shared", rules, opts);
  CHECK_OK(first.status());
  CHECK_OK(second.status());
  CHECK_OK(shared.status());
  if (!first.ok() || !second.ok() || !shared.ok()) return;
  CHECK_EQ(first.value().wire_bytes, second.value().wire_bytes);
  CHECK_EQ(first.value().requests, second.value().requests);
  CHECK(first.value().bare_chunk_reads > 0);
  CHECK(second.value().bare_chunk_reads > 0);
  CHECK_EQ(first.value().view, shared.value().view);
  CHECK_EQ(second.value().view, shared.value().view);

  auto stats = service.CacheStats("cold");
  CHECK_OK(stats.status());
  if (stats.ok()) CHECK_EQ(stats.value().records, uint64_t{0});
}

// ---------------------------------------------------------------------------
// Version bumps: stale sessions fail closed, fresh sessions see the new
// digests, races never produce mixed content.
// ---------------------------------------------------------------------------

TEST(StaleSessionRejectsAfterVersionBump) {
  const std::string v0 = TestDocument(/*folders=*/6, "v0");
  const std::string v1 = TestDocument(/*folders=*/6, "v1");
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", v0, TestConfig(index::Variant::kTcsbr)));
  auto rules = access::ParseRuleList("+ /Hospital/Folder/MedActs\n").take();

  // Open before the bump (the header prefetch reads v0), bump, then
  // drain: the session's remaining fetches hit v1 bytes and digests and
  // must be rejected — not silently blended into the view.
  auto session = service.OpenSession("doc", rules, pipeline::ServeOptions());
  CHECK_OK(session.status());
  if (!session.ok()) return;
  CHECK_EQ(session.value()->version(), uint32_t{0});
  CHECK_OK(service.Update("doc", v1));
  auto cv = service.CurrentVersion("doc");
  CHECK_OK(cv.status());
  if (cv.ok()) CHECK_EQ(cv.value(), uint32_t{1});
  auto drained = session.value()->Drain();
  CHECK(!drained.ok());
  if (!drained.ok()) {
    CHECK(drained.status().code() == StatusCode::kIntegrityError);
  }

  // A session opened after the bump sees the new version's digests and
  // serves the new content.
  auto fresh = service.OpenSession("doc", rules, pipeline::ServeOptions());
  CHECK_OK(fresh.status());
  if (!fresh.ok()) return;
  CHECK_EQ(fresh.value()->version(), uint32_t{1});
  auto fresh_report = fresh.value()->Drain();
  CHECK_OK(fresh_report.status());
  if (fresh_report.ok()) {
    CHECK_EQ(fresh_report.value().view, DirectView(v1, rules));
  }
}

TEST(ShrinkingUpdateStillFailsStaleSessionsClosed) {
  // A bump to a *smaller* document makes a stale session's batch ranges
  // outrun the current store. That must surface as the same
  // IntegrityError class as any other stale read — not InvalidArgument —
  // so callers retrying/reopening on integrity failures handle both.
  const std::string big = TestDocument(/*folders=*/8, "v0");
  const std::string small = TestDocument(/*folders=*/2, "v1");
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", big, TestConfig(index::Variant::kTcsbr)));
  auto rules = access::ParseRuleList("+ /Hospital/Folder/MedActs\n").take();
  auto session = service.OpenSession("doc", rules, pipeline::ServeOptions());
  CHECK_OK(session.status());
  if (!session.ok()) return;
  CHECK_OK(service.Update("doc", small));
  auto drained = session.value()->Drain();
  CHECK(!drained.ok());
  if (!drained.ok()) {
    CHECK(drained.status().code() == StatusCode::kIntegrityError);
  }
}

/// One document of a version-bump race: the content of every version (v0
/// is published, each later one installed by one racing Update) and the
/// role rule sets served against it.
struct RaceDoc {
  std::string id;
  std::vector<std::string> versions;
  std::vector<std::vector<access::AccessRule>> roles;
};

/// Serving threads race one Update per document and version: every
/// completed serve must be byte-identical to *some* published version's
/// view; every other serve must fail with IntegrityError. Anything else
/// (blended or torn views) is a replay-protection hole. Once the race is
/// over, each (document, role) serves twice on the final version: both
/// views exact, and the second ships no integrity material.
void RunVersionBumpRace(const std::vector<RaceDoc>& docs,
                        const server::DocumentConfig& config) {
  server::DocumentService service;
  // views[d][v][r]: the direct reference of document d, version v, role r.
  std::vector<std::vector<std::vector<std::string>>> views;
  for (const RaceDoc& doc : docs) {
    CHECK_OK(service.Publish(doc.id, doc.versions[0], config));
    auto& per_version = views.emplace_back();
    for (const std::string& xml : doc.versions) {
      auto& per_role = per_version.emplace_back();
      for (const auto& rules : doc.roles) {
        per_role.push_back(DirectView(xml, rules));
      }
    }
  }

  constexpr int kThreads = 4;
  std::atomic<bool> stop{false};
  std::atomic<int> attempted{0}, completed{0}, rejected{0};
  std::atomic<int> bad_views{0}, wrong_errors{0};
  std::vector<std::thread> servers;
  for (int t = 0; t < kThreads; ++t) {
    servers.emplace_back([&, t]() {
      for (size_t i = t; !stop.load(std::memory_order_relaxed);
           i += kThreads) {
        const size_t d = i % docs.size();
        const size_t r = i / docs.size() % docs[d].roles.size();
        pipeline::ServeOptions opts;
        // Every third serve defers over-budget pending subtrees.
        opts.pending_buffer_budget = i % 3 == 0 ? 4096 : UINT64_MAX;
        attempted.fetch_add(1);
        auto report = service.Serve(docs[d].id, docs[d].roles[r], opts);
        if (report.ok()) {
          completed.fetch_add(1);
          bool known = false;
          for (const auto& per_role : views[d]) {
            known |= report.value().view == per_role[r];
          }
          if (!known) bad_views.fetch_add(1);
        } else if (report.status().code() == StatusCode::kIntegrityError) {
          rejected.fetch_add(1);
        } else {
          wrong_errors.fetch_add(1);
        }
      }
    });
  }
  for (size_t v = 1; v < docs.front().versions.size(); ++v) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (const RaceDoc& doc : docs) {
      CHECK_OK(service.Update(doc.id, doc.versions[v]));
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stop.store(true);
  for (auto& th : servers) th.join();
  CHECK_EQ(bad_views.load(), 0);
  CHECK_EQ(wrong_errors.load(), 0);
  CHECK(completed.load() > 0);  // The race must not starve every serve.
  CHECK_EQ(completed.load() + rejected.load(), attempted.load());

  for (size_t d = 0; d < docs.size(); ++d) {
    for (size_t r = 0; r < docs[d].roles.size(); ++r) {
      auto first = service.Serve(docs[d].id, docs[d].roles[r],
                                 pipeline::ServeOptions());
      auto second = service.Serve(docs[d].id, docs[d].roles[r],
                                  pipeline::ServeOptions());
      CHECK_OK(first.status());
      CHECK_OK(second.status());
      if (!first.ok() || !second.ok()) continue;
      CHECK_EQ(first.value().view, views[d].back()[r]);
      CHECK_EQ(second.value().view, views[d].back()[r]);
      CHECK_EQ(second.value().proof_hashes_shipped, uint64_t{0});
      CHECK_EQ(second.value().digest_bytes_shipped, uint64_t{0});
    }
  }
}

TEST(VersionBumpRaceNeverMixesContent) {
  // One hand-built document, one role, three bumps.
  RaceDoc doc{"doc", {}, {}};
  doc.roles.push_back(
      access::ParseRuleList("+ /Hospital/Folder/MedActs\n").take());
  for (int v = 0; v < 4; ++v) {
    doc.versions.push_back(
        TestDocument(/*folders=*/6, ("v" + std::to_string(v)).c_str()));
  }
  RunVersionBumpRace({doc}, TestConfig(index::Variant::kTcsbr));

  // The paper corpora in one service, all four roles, two bumps; version
  // v of a family is generated from seed 1 + v (same shape, new text).
  std::vector<RaceDoc> corpora;
  for (bench::CorpusFamily family : bench::PaperFamilies()) {
    RaceDoc& corpus = corpora.emplace_back();
    corpus.id = bench::FamilyName(family);
    for (bench::RuleFamily role : bench::AllRuleFamilies()) {
      corpus.roles.push_back(
          access::ParseRuleList(bench::RulesFor(family, role)).take());
    }
    for (uint64_t v = 0; v < 3; ++v) {
      corpus.versions.push_back(
          bench::GenerateCorpus({family, 1 + v, 32 << 10, /*depth=*/0}).xml);
    }
  }
  server::DocumentConfig config = TestConfig(index::Variant::kTcsbr);
  config.shared_cache_capacity = 1024;  // Every chunk of a 32 KiB corpus.
  RunVersionBumpRace(corpora, config);
}

TEST(StaleCacheNeverVouchesForBumpedContent) {
  // Defense in depth: a decryptor handed a shared cache stamped with the
  // wrong version must not consult it (it falls back to a private one) —
  // otherwise one version's authenticated hashes could waive material for
  // another's bytes.
  crypto::ChunkLayout layout;
  layout.chunk_size = 64;
  layout.fragment_size = 8;
  std::vector<uint8_t> doc(200);
  for (size_t i = 0; i < doc.size(); ++i) doc[i] = static_cast<uint8_t>(i);
  auto store = crypto::SecureDocumentStore::Build(doc, TestKey(), layout,
                                                  /*version=*/0);
  CHECK_OK(store.status());
  auto stale_cache = std::make_shared<crypto::VerifiedDigestCache>(
      layout.fragments_per_chunk(), 8, /*version=*/0);
  {
    // Populate the shared cache the only way the typestate wall permits:
    // through a real version-0 verification (Record() is passkey-gated to
    // the decryptor's verification path, so a test cannot forge entries).
    crypto::SoeDecryptor v0(TestKey(), layout, store.value().plaintext_size(),
                            store.value().chunk_count(),
                            /*expected_version=*/0,
                            /*digest_cache_capacity=*/8, stale_cache);
    CHECK_OK(testing::FetchVerified(store.value(), &v0, 0, 64).status());
  }
  CHECK(stale_cache->CanVerifyBare(0, 0, 7));
  // The version-1 decryptor's cache stays private: the stale shared
  // instance must not make ranges bare-verifiable for this serve.
  crypto::SoeDecryptor soe(TestKey(), layout, store.value().plaintext_size(),
                           store.value().chunk_count(),
                           /*expected_version=*/1,
                           /*digest_cache_capacity=*/8, stale_cache);
  CHECK(!soe.CanVerifyBare(0, 0, 7));
}

// ---------------------------------------------------------------------------
// Owner side: publishing costs time linear in the document, whatever its
// shape.
// ---------------------------------------------------------------------------

/// CPU seconds to publish `xml` (parse, encode, encrypt) once.
double TimePublish(const std::string& xml) {
  server::DocumentService service;
  const double start = testing::ThreadCpuSeconds();
  CHECK_OK(service.Publish("doc", xml, TestConfig(index::Variant::kTcsbr)));
  return testing::ThreadCpuSeconds() - start;
}

TEST(PublishCostsLinearTime) {
  // Depth, width and text length must each cost linear work on the owner
  // side: no per-level recursion, no whole-tree rounds per width change,
  // no per-byte re-copies. time(4n) / time(n) over the min of 3 runs each
  // must stay within 5; an attempt over the bound (a busy machine's shared
  // caches can punish the 4x working set) is re-measured, up to 3
  // attempts. Quadratic work (a ratio near 16) fails every attempt.
  struct Shape {
    const char* name;
    std::function<std::string(int)> make;
    int n;
  };
  const Shape shapes[] = {
      {"chain",
       [](int n) {
         std::string xml;
         for (int i = 0; i < n; ++i) xml += "<a>";
         xml += "x";
         for (int i = 0; i < n; ++i) xml += "</a>";
         return xml;
       },
       16 << 10},
      {"fan-out",
       [](int n) {
         std::string xml = "<r>";
         for (int i = 0; i < n; ++i) xml += "<l>x</l>";
         return xml + "</r>";
       },
       16 << 10},
      {"text",
       [](int n) {
         return "<t>" + std::string(static_cast<size_t>(n), 'x') + "</t>";
       },
       256 << 10},
  };
  for (const Shape& shape : shapes) {
    const std::string small_xml = shape.make(shape.n);
    const std::string large_xml = shape.make(4 * shape.n);
    double ratio = 0;
    for (int attempt = 0; attempt < 3; ++attempt) {
      double small = 1e9, large = 1e9;
      for (int run = 0; run < 3; ++run) {
        small = std::min(small, TimePublish(small_xml));
        large = std::min(large, TimePublish(large_xml));
      }
      ratio = large / small;
      if (ratio <= 5) break;
    }
    if (ratio > 5) {
      testing::Fail(__FILE__, __LINE__,
                    std::string(shape.name) + ": 4x the size took " +
                        std::to_string(ratio) + "x the time");
    }
  }
}

}  // namespace

// Batched verified-fetch tests: the range-coalescing planner must leave
// every authorized view byte-identical whatever its gap threshold, batch
// horizon or readahead dynamics; coalescing must only ever reduce round
// trips; and the verified-digest cache must make re-reads cheap without
// weakening integrity — a tampered terminal must be caught even on a
// cache-hit ("bare") re-read that ships no Merkle material at all.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "bench/corpus.h"
#include "common/splitmix64.h"
#include "crypto/secure_store.h"
#include "index/encoder.h"
#include "index/fetch_planner.h"
#include "index/secure_fetcher.h"
#include "server/document_service.h"
#include "testing.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace {

using namespace csxa;  // NOLINT

crypto::TripleDes::Key TestKey() {
  crypto::TripleDes::Key key{};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(0xa7 ^ (i * 31));
  }
  return key;
}

std::string Payload(const char* stem, int i, size_t n) {
  std::string s = std::string(stem) + "-" + std::to_string(i) + "-";
  while (s.size() < n) s += "loremipsum";
  s.resize(n);
  return s;
}

/// Folder set with bulky denied subtrees, rare grants, and a trailing
/// clearance predicate — exercises skips, deferrals and re-reads at once.
std::string TestDocument(int folders) {
  std::string xml = "<Hospital>";
  for (int f = 0; f < folders; ++f) {
    xml += "<Folder><Admin>";
    xml += "<Name>Patient-" + std::to_string(f) + "</Name>";
    xml += "<Insurance>" + Payload("ins", f, 160) + "</Insurance>";
    xml += "</Admin><MedActs>";
    for (int c = 0; c < 3; ++c) {
      xml += "<Consult><Diagnostic>" + Payload("diag", f * 10 + c, 56) +
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

/// Publication without a shared cache: every serve starts cold with a
/// private digest cache, so the serves a test compares share nothing.
server::DocumentConfig ColdConfig(index::Variant variant, uint32_t chunk_size,
                                  uint32_t fragment_size) {
  server::DocumentConfig cfg;
  cfg.variant = variant;
  cfg.layout.chunk_size = chunk_size;
  cfg.layout.fragment_size = fragment_size;
  cfg.key = TestKey();
  cfg.shared_cache_capacity = 0;
  return cfg;
}

// ---------------------------------------------------------------------------
// Coalescing equivalence matrix: gap thresholds x variants x rulesets.
// ---------------------------------------------------------------------------

TEST(CoalescingEquivalenceMatrix) {
  const std::string xml = TestDocument(/*folders=*/4);
  // Ordered gap thresholds, small to bridge-everything; requests must be
  // monotonically non-increasing along this axis (more bridging can only
  // merge round trips, never create new ones) while every view stays
  // byte-identical to the oracle-free reference.
  const uint64_t kThresholds[] = {0, 32, 256, 4096};
  for (const char* rules_text : kRuleSets) {
    auto parsed = access::ParseRuleList(rules_text);
    CHECK_OK(parsed.status());
    if (!parsed.ok()) continue;
    std::vector<access::AccessRule> rules = parsed.take();
    const std::string expected = DirectView(xml, rules);
    for (auto variant : {index::Variant::kTc, index::Variant::kTcs,
                         index::Variant::kTcsb, index::Variant::kTcsbr}) {
      server::DocumentService service;
      CHECK_OK(service.Publish("doc", xml, ColdConfig(variant, 256, 32)));

      uint64_t prev_requests = UINT64_MAX;
      for (uint64_t gap : kThresholds) {
        pipeline::ServeOptions opts;
        opts.planner.gap_threshold_bytes = gap;
        auto report = service.Serve("doc", rules, opts);
        CHECK_OK(report.status());
        if (!report.ok()) continue;
        CHECK_EQ(report.value().view, expected);
        CHECK(report.value().requests <= prev_requests);
        prev_requests = report.value().requests;
        // Sanity: the batch accounting stays coherent.
        CHECK(report.value().segments >= report.value().requests);
        CHECK(report.value().bytes_fetched <= report.value().encoded_bytes);
      }
    }
  }
}

TEST(BatchHorizonDoesNotChangeViews) {
  // Degenerate horizons (one fragment per batch, everything in one batch)
  // only change round-trip counts, never bytes of the view.
  const std::string xml = TestDocument(/*folders=*/3);
  auto rules = access::ParseRuleList("+ //Prescription\n").take();
  const std::string expected = DirectView(xml, rules);
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", xml,
                           ColdConfig(index::Variant::kTcsbr, 128, 16)));
  uint64_t tiny_requests = 0, huge_requests = 0;
  for (uint64_t horizon : {uint64_t{16}, uint64_t{1} << 20}) {
    pipeline::ServeOptions opts;
    opts.planner.max_batch_bytes = horizon;
    auto report = service.Serve("doc", rules, opts);
    CHECK_OK(report.status());
    if (!report.ok()) continue;
    CHECK_EQ(report.value().view, expected);
    (horizon == 16 ? tiny_requests : huge_requests) = report.value().requests;
  }
  CHECK(huge_requests < tiny_requests);
}

// ---------------------------------------------------------------------------
// Verified-digest cache: bare re-reads are cheap but never trusting.
// ---------------------------------------------------------------------------

crypto::ChunkLayout SmallLayout() {
  crypto::ChunkLayout layout;
  layout.chunk_size = 64;
  layout.fragment_size = 8;
  return layout;
}

TEST(BareReReadVerifiesAgainstCache) {
  std::vector<uint8_t> doc(200);
  for (size_t i = 0; i < doc.size(); ++i) doc[i] = static_cast<uint8_t>(i);
  auto layout = SmallLayout();
  auto store = crypto::SecureDocumentStore::Build(doc, TestKey(), layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  crypto::SoeDecryptor soe(TestKey(), layout, doc.size(),
                           store.value().chunk_count());
  std::vector<uint8_t> out(doc.size(), 0);

  // First touch of chunk 0: fragments [0..3] with full material.
  crypto::BatchRequest req1;
  req1.runs.push_back({0, 32});
  auto resp1 = store.value().ReadBatch(req1);
  CHECK_OK(resp1.status());
  CHECK_OK(soe.DecryptVerifiedBatch(req1, resp1.value(), out.data(),
                                    out.size()));
  CHECK(std::equal(doc.begin(), doc.begin() + 32, out.begin()));
  CHECK_EQ(resp1.value().chunks.size(), size_t{1});

  // Re-read of the chunk's other half: the cache holds the sibling
  // hashes, so the read is waived bare — ciphertext only.
  CHECK(soe.CanVerifyBare(0, 4, 7));
  crypto::BatchRequest req2;
  req2.runs.push_back({32, 64});
  req2.bare_chunks.push_back(0);
  auto resp2 = store.value().ReadBatch(req2);
  CHECK_OK(resp2.status());
  CHECK_EQ(resp2.value().chunks.size(), size_t{0});  // No material shipped.
  CHECK_EQ(resp2.value().WireBytes(), uint64_t{32});
  const uint64_t combines_before = soe.counters().hash_combines;
  CHECK_OK(soe.DecryptVerifiedBatch(req2, resp2.value(), out.data(),
                                    out.size()));
  CHECK(std::equal(doc.begin() + 32, doc.begin() + 64, out.begin() + 32));
  CHECK_EQ(soe.cache_stats().bare_hits, uint64_t{1});
  // Leaves 4..7 were unknown, so the read recombined them with the cached
  // left half: 2 + 1 hashes for the right half, 1 for the root.
  CHECK_EQ(soe.counters().hash_combines - combines_before, uint64_t{4});

  // Every leaf of the chunk is now cached: a bare re-read of either half
  // verifies by leaf comparison alone, computing no interior hash.
  const uint64_t combines_warm = soe.counters().hash_combines;
  crypto::BatchRequest req3;
  req3.runs.push_back({0, 32});
  req3.bare_chunks.push_back(0);
  auto resp3 = store.value().ReadBatch(req3);
  CHECK_OK(resp3.status());
  std::fill(out.begin(), out.end(), 0);
  CHECK_OK(soe.DecryptVerifiedBatch(req3, resp3.value(), out.data(),
                                    out.size()));
  CHECK(std::equal(doc.begin(), doc.begin() + 32, out.begin()));
  CHECK_EQ(soe.cache_stats().bare_hits, uint64_t{2});
  CHECK_EQ(soe.counters().hash_combines, combines_warm);
}

TEST(TamperedFullyCachedReReadIsRejected) {
  // The cross-serve case: one session authenticates whole chunks into the
  // shared cache, a second session re-reads them bare. Leaf matching must
  // not accept a tampered fragment whose leaf the cache already holds.
  std::vector<uint8_t> doc(256);
  for (size_t i = 0; i < doc.size(); ++i) doc[i] = static_cast<uint8_t>(i * 5);
  auto layout = SmallLayout();
  auto store = crypto::SecureDocumentStore::Build(doc, TestKey(), layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  const uint64_t chunks = store.value().chunk_count();
  auto cache = std::make_shared<crypto::VerifiedDigestCache>(
      layout.fragments_per_chunk(),
      crypto::SoeDecryptor::kDefaultDigestCacheCapacity);
  crypto::SoeDecryptor first(TestKey(), layout, doc.size(), chunks, 0,
                             crypto::SoeDecryptor::kDefaultDigestCacheCapacity,
                             cache);
  crypto::SoeDecryptor second(TestKey(), layout, doc.size(), chunks, 0,
                              crypto::SoeDecryptor::kDefaultDigestCacheCapacity,
                              cache);
  std::vector<uint8_t> out(doc.size(), 0);

  // The first session verifies chunks 0 and 1 whole, and the left halves
  // of chunks 2 and 3 (leaves 0..3).
  crypto::BatchRequest warm;
  warm.runs.push_back({0, 160});
  warm.runs.push_back({192, 224});
  auto warm_resp = store.value().ReadBatch(warm);
  CHECK_OK(warm_resp.status());
  CHECK_OK(first.DecryptVerifiedBatch(warm, warm_resp.value(), out.data(),
                                      out.size()));

  // The terminal tampers with an already-authenticated fragment of chunk 1
  // (fragment 4), whose cached leaf no longer matches.
  store.value().TamperByte(100, 0x10);
  CHECK(second.CanVerifyBare(0, 0, 7));
  CHECK(second.CanVerifyBare(1, 0, 7));
  crypto::BatchRequest bare;
  bare.runs.push_back({0, 64});    // Chunk 0 whole: honest.
  bare.runs.push_back({96, 128});  // Chunk 1, fragments 4..7: tampered.
  bare.bare_chunks = {0, 1};
  auto bare_resp = store.value().ReadBatch(bare);
  CHECK_OK(bare_resp.status());
  CHECK(bare_resp.value().chunks.empty());
  std::vector<uint8_t> sentinel(doc.size(), 0xee);
  Status st = second.DecryptVerifiedBatch(bare, bare_resp.value(),
                                          sentinel.data(), sentinel.size());
  CHECK(st.code() == StatusCode::kIntegrityError);
  CHECK(st.message().find("re-read failed verification against cached "
                          "digest") != std::string::npos);
  // Not one byte of the batch is released, the honest chunk's included.
  CHECK(std::all_of(sentinel.begin(), sentinel.end(),
                    [](uint8_t b) { return b == 0xee; }));

  // Mixed range: chunk 2's fragments 2..3 are cached, 4..7 are not. The
  // read falls through to recombination and verifies.
  CHECK(second.CanVerifyBare(2, 2, 7));
  const uint64_t combines_before = second.counters().hash_combines;
  crypto::BatchRequest mixed;
  mixed.runs.push_back({144, 192});
  mixed.bare_chunks.push_back(2);
  auto mixed_resp = store.value().ReadBatch(mixed);
  CHECK_OK(mixed_resp.status());
  CHECK_OK(second.DecryptVerifiedBatch(mixed, mixed_resp.value(), out.data(),
                                       out.size()));
  CHECK(std::equal(doc.begin() + 144, doc.begin() + 192, out.begin() + 144));
  CHECK(second.counters().hash_combines > combines_before);

  // A mixed range over a tampered cached leaf fails in the fallback:
  // chunk 3's fragment 1 is cached and tampered, 4..6 are not cached.
  store.value().TamperByte(204, 0x01);
  crypto::BatchRequest mixed_tampered;
  mixed_tampered.runs.push_back({200, 248});
  mixed_tampered.bare_chunks.push_back(3);
  auto tampered_resp = store.value().ReadBatch(mixed_tampered);
  CHECK_OK(tampered_resp.status());
  st = second.DecryptVerifiedBatch(mixed_tampered, tampered_resp.value(),
                                   sentinel.data(), sentinel.size());
  CHECK(st.code() == StatusCode::kIntegrityError);
  CHECK(std::all_of(sentinel.begin(), sentinel.end(),
                    [](uint8_t b) { return b == 0xee; }));
}

TEST(TamperedBareReReadIsRejected) {
  // The cache must not weaken integrity: a terminal that tampers with
  // bytes served bare (no proof, no digest on the wire) is still caught,
  // because the recomputed leaf hashes no longer combine to the cached,
  // already-authenticated root.
  std::vector<uint8_t> doc(200);
  for (size_t i = 0; i < doc.size(); ++i) doc[i] = static_cast<uint8_t>(i * 3);
  auto layout = SmallLayout();
  auto store = crypto::SecureDocumentStore::Build(doc, TestKey(), layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  crypto::SoeDecryptor soe(TestKey(), layout, doc.size(),
                           store.value().chunk_count());
  std::vector<uint8_t> out(doc.size(), 0);

  crypto::BatchRequest req1;
  req1.runs.push_back({0, 32});
  auto resp1 = store.value().ReadBatch(req1);
  CHECK_OK(resp1.status());
  CHECK_OK(soe.DecryptVerifiedBatch(req1, resp1.value(), out.data(),
                                    out.size()));

  // The terminal tampers with a byte of the not-yet-read half...
  store.value().TamperByte(40, 0x42);
  CHECK(soe.CanVerifyBare(0, 4, 7));
  crypto::BatchRequest req2;
  req2.runs.push_back({32, 64});
  req2.bare_chunks.push_back(0);
  auto resp2 = store.value().ReadBatch(req2);
  CHECK_OK(resp2.status());
  Status st =
      soe.DecryptVerifiedBatch(req2, resp2.value(), out.data(), out.size());
  CHECK(st.code() == StatusCode::kIntegrityError);

  // ... and omitting material without the SOE's waiver also fails.
  crypto::BatchRequest req3;
  req3.runs.push_back({64, 128});
  auto resp3 = store.value().ReadBatch(req3);
  CHECK_OK(resp3.status());
  resp3.value().chunks.clear();  // Terminal withholds integrity evidence.
  st = soe.DecryptVerifiedBatch(req3, resp3.value(), out.data(), out.size());
  CHECK(st.code() == StatusCode::kIntegrityError);
}

TEST(TinyCacheCannotEvictClaimsMidBatch) {
  // A batch whose waivers/hints were built against the cache must stay
  // valid while the same batch records other chunks: with capacity 1, a
  // Record() for chunk 0 must not evict chunk 1's pinned entry that the
  // request's bare claim depends on — an honest response would fail.
  std::vector<uint8_t> doc(200);
  for (size_t i = 0; i < doc.size(); ++i) doc[i] = static_cast<uint8_t>(i);
  auto layout = SmallLayout();
  auto store = crypto::SecureDocumentStore::Build(doc, TestKey(), layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  crypto::SoeDecryptor soe(TestKey(), layout, doc.size(),
                           store.value().chunk_count(),
                           /*expected_version=*/0,
                           /*digest_cache_capacity=*/1);
  std::vector<uint8_t> out(doc.size(), 0);

  // Touch chunk 1 (fragments 0..3) — the single cache slot holds it.
  crypto::BatchRequest req1;
  req1.runs.push_back({64, 96});
  auto resp1 = store.value().ReadBatch(req1);
  CHECK_OK(resp1.status());
  CHECK_OK(soe.DecryptVerifiedBatch(req1, resp1.value(), out.data(),
                                    out.size()));
  CHECK(soe.CanVerifyBare(1, 4, 7));

  // One batch: chunk 0 with material (verified first, would evict) and
  // chunk 1's other half bare.
  crypto::BatchRequest req2;
  req2.runs.push_back({0, 64});
  req2.runs.push_back({96, 128});
  req2.bare_chunks.push_back(1);
  auto resp2 = store.value().ReadBatch(req2);
  CHECK_OK(resp2.status());
  CHECK_OK(soe.DecryptVerifiedBatch(req2, resp2.value(), out.data(),
                                    out.size()));
  CHECK(std::equal(doc.begin(), doc.begin() + 128, out.begin()));
}

TEST(TamperedTrimmedProofIsRejected) {
  // Proof trimming (the terminal omits hashes the SOE declared cached)
  // must not open a substitution hole: tampered fragments under a trimmed
  // proof still fail against the cached nodes.
  std::vector<uint8_t> doc(200);
  for (size_t i = 0; i < doc.size(); ++i) doc[i] = static_cast<uint8_t>(i ^ 7);
  auto layout = SmallLayout();
  auto store = crypto::SecureDocumentStore::Build(doc, TestKey(), layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  crypto::SoeDecryptor soe(TestKey(), layout, doc.size(),
                           store.value().chunk_count());
  std::vector<uint8_t> out(doc.size(), 0);

  crypto::BatchRequest req1;
  req1.runs.push_back({0, 16});  // Fragments [0..1] only.
  auto resp1 = store.value().ReadBatch(req1);
  CHECK_OK(resp1.status());
  CHECK_OK(soe.DecryptVerifiedBatch(req1, resp1.value(), out.data(),
                                    out.size()));

  store.value().TamperByte(20, 0x80);  // Inside fragment 2.
  crypto::BatchRequest req2;
  req2.runs.push_back({16, 32});  // Fragments [2..3], trimmed material.
  req2.hints.push_back(soe.CacheHintFor(0));
  CHECK(req2.hints[0].known_nodes != 0);
  CHECK(req2.hints[0].root_known);
  auto resp2 = store.value().ReadBatch(req2);
  CHECK_OK(resp2.status());
  // The trimmed material carries no digest (root waived)...
  CHECK(!resp2.value().chunks.empty());
  CHECK(resp2.value().chunks[0].encrypted_digest.empty());
  Status st =
      soe.DecryptVerifiedBatch(req2, resp2.value(), out.data(), out.size());
  CHECK(st.code() == StatusCode::kIntegrityError);
}

// ---------------------------------------------------------------------------
// Deferral re-reads through the pipeline: cheap with the cache, still
// tamper-proof, and never double-fetching.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// Shared-cache semantics pinned: one seeded op sequence of batch reads
// (cold, trimmed and bare), probes, pins and tampered reads, at a capacity
// that evicts constantly and at one that never does. The final Stats, the
// resident chunk set and a fold of every probe answer were recorded from
// the linear-scan cache; any change in lookup, LRU order, the pinned-slot
// rule or accounting moves one of them.
// ---------------------------------------------------------------------------

struct CacheRunResult {
  crypto::VerifiedDigestCache::Stats stats;
  uint64_t resident = 0;     ///< Bit c set when chunk c's root is cached.
  uint64_t probe_fold = 0;   ///< Order-sensitive fold of probe answers.
  uint64_t reads_failed = 0;
};

CacheRunResult RunSeededCacheOps(size_t capacity) {
  CacheRunResult out;
  auto layout = SmallLayout();  // 8 fragments of 8 B per 64 B chunk.
  std::vector<uint8_t> doc(20 * 64 - 24);
  for (size_t i = 0; i < doc.size(); ++i) {
    doc[i] = static_cast<uint8_t>(i * 7 + 3);
  }
  auto built = crypto::SecureDocumentStore::Build(doc, TestKey(), layout);
  CHECK_OK(built.status());
  if (!built.ok()) return out;
  crypto::SecureDocumentStore& store = built.value();
  const uint64_t chunks = store.chunk_count();
  const uint64_t size = store.ciphertext().size();
  auto cache = std::make_shared<crypto::VerifiedDigestCache>(
      layout.fragments_per_chunk(), capacity);
  crypto::SoeDecryptor soe(TestKey(), layout, doc.size(), chunks, 0,
                           capacity, cache);
  std::vector<uint8_t> plain(doc.size(), 0);
  std::vector<crypto::VerifiedDigestCache::PinScope> pins;
  uint64_t rng = 20260417;
  auto fold = [&out](uint64_t v) {
    out.probe_fold = (out.probe_fold ^ v) * 0x100000001B3ULL;
  };
  auto read = [&](uint64_t begin, uint64_t end) -> Status {
    // Built the way SecureFetcher builds a batch: waive every chunk whose
    // covered range verifies bare, hint the rest.
    crypto::BatchRequest req;
    req.runs.push_back({begin, end});
    for (uint64_t c = begin / 64; c <= (end - 1) / 64; ++c) {
      const uint64_t cb = std::max(begin, c * 64);
      const uint64_t ce = std::min(end, c * 64 + 64);
      const auto first = static_cast<uint32_t>((cb - c * 64) / 8);
      const auto last = static_cast<uint32_t>((ce - 1 - c * 64) / 8);
      if (soe.CanVerifyBare(c, first, last)) {
        req.bare_chunks.push_back(c);
        continue;
      }
      crypto::BatchRequest::ChunkHint hint = soe.CacheHintFor(c);
      if (hint.known_nodes != 0 || hint.root_known) req.hints.push_back(hint);
    }
    CSXA_ASSIGN_OR_RETURN(crypto::BatchResponse resp, store.ReadBatch(req));
    return soe.DecryptVerifiedBatch(req, resp, plain.data(), plain.size());
  };
  for (int op = 0; op < 600; ++op) {
    const uint64_t r = SplitMix64(&rng);
    const uint64_t c = (r >> 8) % chunks;
    const uint64_t f1 = (r >> 16) % 8;
    const uint64_t span = (r >> 24) % 12;  // Up to the next chunk.
    switch (r % 8) {
      case 0: case 1: case 2: case 3: {
        const uint64_t begin = c * 64 + f1 * 8;
        const uint64_t end = std::min(size, begin + (span + 1) * 8);
        if (begin >= end) break;
        Status st = read(begin, end);
        CHECK_OK(st);
        if (st.ok()) {
          CHECK(std::equal(doc.begin() + begin,
                           doc.begin() + std::min<uint64_t>(end, doc.size()),
                           plain.begin() + begin));
        }
        break;
      }
      case 4: {
        const auto first = static_cast<uint32_t>(f1);
        const auto last = static_cast<uint32_t>(
            std::min<uint64_t>(7, f1 + span % 4));
        fold(cache->CanVerifyBare(c, first, last) ? 1 : 2);
        fold(cache->MissingProofNodes(c, first, last));
        fold(cache->KnownMask(c));
        crypto::Sha1Digest node{};
        fold(cache->Node(c, static_cast<int>(span % 4), f1 >> (span % 4),
                         &node)
                 ? node[0] + 3u
                 : 5u);
        break;
      }
      case 5: {
        if (pins.size() >= 3) break;
        std::vector<uint64_t> pinned;
        for (uint64_t k = 0; k <= span % 3; ++k) {
          pinned.push_back((c + k * 5) % chunks);
        }
        pins.emplace_back(cache.get(), std::move(pinned));
        break;
      }
      case 6: {
        if (pins.empty()) break;
        pins.erase(pins.begin() + static_cast<long>(f1 % pins.size()));
        break;
      }
      case 7: {
        // A tampered fragment fails closed, cold or bare, and is restored.
        const uint64_t pos = c * 64 + f1 * 8 + 3;
        if (pos >= size) break;
        store.TamperByte(pos, 0x40);
        Status st = read(c * 64 + f1 * 8, std::min(size, c * 64 + f1 * 8 + 8));
        CHECK(!st.ok());
        if (!st.ok()) ++out.reads_failed;
        store.TamperByte(pos, 0x40);
        break;
      }
    }
  }
  pins.clear();
  out.stats = cache->stats();
  for (uint64_t c = 0; c < chunks; ++c) {
    if (cache->RootKnown(c)) out.resident |= uint64_t{1} << c;
  }
  return out;
}

TEST(SharedCacheSemanticsArePinned) {
  struct Pinned {
    size_t capacity;
    uint64_t bare_hits, misses, records, evictions, resident, probe_fold;
  };
  // Recorded from the cache that scanned its entries on every lookup.
  const Pinned kPinned[] = {
      {4, 69, 444, 359, 311, 0x60048, 0xf195715ec52f4324ULL},
      {4096, 456, 24, 42, 0, 0xfffff, 0xe11de27d87273a0ULL},
  };
  for (const Pinned& want : kPinned) {
    const CacheRunResult r = RunSeededCacheOps(want.capacity);
    std::printf("  capacity %zu: bare_hits %llu misses %llu records %llu "
                "evictions %llu resident %#llx\n",
                want.capacity, static_cast<unsigned long long>(r.stats.bare_hits),
                static_cast<unsigned long long>(r.stats.misses),
                static_cast<unsigned long long>(r.stats.records),
                static_cast<unsigned long long>(r.stats.evictions),
                static_cast<unsigned long long>(r.resident));
    CHECK_EQ(r.stats.bare_hits, want.bare_hits);
    CHECK_EQ(r.stats.misses, want.misses);
    CHECK_EQ(r.stats.records, want.records);
    CHECK_EQ(r.stats.evictions, want.evictions);
    CHECK_EQ(r.resident, want.resident);
    CHECK_EQ(r.probe_fold, want.probe_fold);
    CHECK_EQ(r.reads_failed, uint64_t{69});
  }
}

TEST(DeferralRereadsUseDigestCache) {
  const std::string xml = TestDocument(/*folders=*/6);
  auto rules =
      access::ParseRuleList("+ /Hospital/Folder[Clearance = open]/MedActs\n")
          .take();
  const std::string expected = DirectView(xml, rules);
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", xml,
                           ColdConfig(index::Variant::kTcsbr, 256, 32)));

  pipeline::ServeOptions deferred;
  deferred.pending_buffer_budget = 64;  // Force deferrals + re-reads.
  auto with_cache = service.Serve("doc", rules, deferred);
  pipeline::ServeOptions no_cache = deferred;
  no_cache.digest_cache_capacity = 0;
  auto without_cache = service.Serve("doc", rules, no_cache);
  CHECK_OK(with_cache.status());
  CHECK_OK(without_cache.status());
  if (!with_cache.ok() || !without_cache.ok()) return;
  CHECK_EQ(with_cache.value().view, expected);
  CHECK_EQ(without_cache.value().view, expected);
  CHECK(with_cache.value().drive.rereads > 0);
  // The cache turns re-read verification material-free: bare chunk reads
  // happen, and the wire total strictly beats the cache-less serve.
  CHECK(with_cache.value().bare_chunk_reads > 0);
  CHECK_EQ(without_cache.value().bare_chunk_reads, uint64_t{0});
  CHECK(with_cache.value().wire_bytes < without_cache.value().wire_bytes);
}

TEST(TamperedDeferralRereadIsRejectedThroughPipeline) {
  const std::string xml = TestDocument(/*folders=*/6);
  auto rules =
      access::ParseRuleList("+ /Hospital/Folder[Clearance = open]/MedActs\n")
          .take();
  const server::DocumentConfig cfg =
      ColdConfig(index::Variant::kTcsbr, 256, 32);
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", xml, cfg));
  pipeline::ServeOptions deferred;
  deferred.pending_buffer_budget = 64;
  auto clean = service.Serve("doc", rules, deferred);
  CHECK_OK(clean.status());
  // A lying terminal: the same image under the same key, layout and
  // version, tampered somewhere in the first granted folder's MedActs
  // region (the re-read bytes) — every 8th byte of the first third, to be
  // sure at least one lands in a deferred subtree whichever way it was
  // encoded — and attached as the document's transport.
  auto dom = xml::SaxParser::ParseToDom(xml);
  CHECK_OK(dom.status());
  if (!dom.ok()) return;
  auto doc = index::Encode(*dom.value(), cfg.variant);
  CHECK_OK(doc.status());
  if (!doc.ok()) return;
  auto store = crypto::SecureDocumentStore::Build(doc.value().bytes, cfg.key,
                                                  cfg.layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  for (uint64_t pos = 64; pos < doc.value().bytes.size() / 3; pos += 8) {
    store.value().TamperByte(pos, 0x10);
  }
  CHECK_OK(service.AttachTransport(
      "doc", std::make_shared<crypto::SecureDocumentStore>(store.take())));
  auto tampered = service.Serve("doc", rules, deferred);
  CHECK(!tampered.ok());
  if (!tampered.ok()) {
    CHECK(tampered.status().code() == StatusCode::kIntegrityError);
  }
}

TEST(FullStreamFetchesEveryFragmentExactlyOnce) {
  // The no-double-fetch invariant behind the header-prefetch alignment
  // fix: across header growth, batching, readahead and chunk completion,
  // a full stream materializes every plaintext byte exactly once —
  // bytes_fetched exceeding the document would mean a straddled fragment
  // was paid for twice.
  const std::string xml = TestDocument(/*folders=*/4);
  for (auto layout_pair : {std::pair<uint32_t, uint32_t>{256, 32},
                           {192, 24},   // 256-byte header prefetch unaligned
                           {64, 8}}) {
    server::DocumentService service;
    CHECK_OK(service.Publish(
        "doc", xml,
        ColdConfig(index::Variant::kTc,  // Streams everything.
                   layout_pair.first, layout_pair.second)));
    auto report = service.Serve("doc", std::vector<access::AccessRule>{},
                                pipeline::ServeOptions{});
    CHECK_OK(report.status());
    if (!report.ok()) continue;
    CHECK_EQ(report.value().bytes_fetched, report.value().encoded_bytes);
  }
}

// ---------------------------------------------------------------------------
// Planner unit tests.
// ---------------------------------------------------------------------------

TEST(PlannerHonoursHintsAndValidity) {
  index::PlannerOptions opts;
  opts.gap_threshold_bytes = 0;
  opts.max_batch_bytes = 1 << 20;
  index::FetchPlanner planner(/*document_bytes=*/1024, /*fragment_size=*/32,
                              /*chunk_size=*/256, opts);
  std::vector<bool> valid(planner.fragment_count(), false);

  // Unknown fragments beyond the demand are not speculated into a cold
  // batch (first demand: no sequential streak yet beyond its own span).
  auto runs = planner.Plan(0, 32, valid);
  CHECK_EQ(runs.size(), size_t{1});
  CHECK_EQ(runs[0].begin_frag, uint64_t{0});
  CHECK_EQ(runs[0].end_frag, uint64_t{1});

  // Wanted ranges extend the batch; excluded ranges cut it.
  planner.HintWanted(64, 256);
  planner.HintExcluded(128, 192);
  valid[0] = true;
  runs = planner.Plan(32, 64, valid);
  // Demand frag 1, wanted frags 2..7 minus excluded 4..5.
  CHECK_EQ(runs.size(), size_t{2});
  CHECK_EQ(runs[0].begin_frag, uint64_t{1});
  CHECK_EQ(runs[0].end_frag, uint64_t{4});
  CHECK_EQ(runs[1].begin_frag, uint64_t{6});
  CHECK_EQ(runs[1].end_frag, uint64_t{8});

  // A demanded range is fetched even through exclusions, but held
  // fragments are never re-planned.
  for (auto& r : runs) {
    for (uint64_t f = r.begin_frag; f < r.end_frag; ++f) valid[f] = true;
  }
  runs = planner.Plan(128, 192, valid);
  CHECK_EQ(runs.size(), size_t{1});
  CHECK_EQ(runs[0].begin_frag, uint64_t{4});
  CHECK_EQ(runs[0].end_frag, uint64_t{6});
}

TEST(PlannerProofCostsAreCacheAware) {
  // Satellite regression (PR 4 known gap): completion estimates priced
  // proofs pre-trimming. The planner must fill a coverage hole when the
  // *shipped* proof hashes it removes outweigh the hole's ciphertext —
  // and must NOT fill it when the digest cache already holds those hashes
  // (they cost no wire either way). Layout: one 256-byte chunk of eight
  // 32-byte fragments; demand frags 0..2, wanted frags 5..7, hole 3..4.
  index::PlannerOptions opts;
  opts.gap_threshold_bytes = 0;  // Isolate pass 3 from gap bridging.
  opts.max_batch_bytes = 1 << 20;

  {
    // Cold cache (no probe): the two covered ranges ship 4 sibling
    // hashes (80 bytes) — dearer than the 64-byte hole, so it is filled
    // and the chunk goes out as one full-coverage run with empty proof.
    index::FetchPlanner planner(/*document_bytes=*/256, /*fragment_size=*/32,
                                /*chunk_size=*/256, opts);
    std::vector<bool> valid(planner.fragment_count(), false);
    planner.HintWanted(160, 256);
    auto runs = planner.Plan(0, 96, valid);
    CHECK_EQ(runs.size(), size_t{1});
    CHECK_EQ(runs[0].begin_frag, uint64_t{0});
    CHECK_EQ(runs[0].end_frag, uint64_t{8});
    CHECK(planner.stats().proof_holes_filled +
              planner.stats().chunks_completed >=
          1);
  }
  {
    // Warm cache (probe says every hash is already held): the hole saves
    // 64 ciphertext bytes and costs nothing — it must survive. This is
    // the over-fetch the pre-trimming estimate used to cause.
    index::FetchPlanner planner(/*document_bytes=*/256, /*fragment_size=*/32,
                                /*chunk_size=*/256, opts);
    std::vector<bool> valid(planner.fragment_count(), false);
    planner.HintWanted(160, 256);
    auto runs = planner.Plan(0, 96, valid,
                             [](uint64_t, uint32_t, uint32_t) -> uint64_t {
                               return 0;  // Everything cached.
                             });
    CHECK_EQ(runs.size(), size_t{2});
    CHECK_EQ(runs[0].begin_frag, uint64_t{0});
    CHECK_EQ(runs[0].end_frag, uint64_t{3});
    CHECK_EQ(runs[1].begin_frag, uint64_t{5});
    CHECK_EQ(runs[1].end_frag, uint64_t{8});
    CHECK_EQ(planner.stats().proof_holes_filled, uint64_t{0});
    CHECK_EQ(planner.stats().chunks_completed, uint64_t{0});
  }
}

TEST(DecryptorMissingProofNodesTracksCache) {
  // The decryptor-side probe feeding the planner: a cold chunk prices the
  // full sibling set, a verified one prices zero.
  std::vector<uint8_t> doc(200);
  for (size_t i = 0; i < doc.size(); ++i) doc[i] = static_cast<uint8_t>(i);
  auto layout = SmallLayout();  // 64-byte chunks, 8-byte fragments.
  auto store = crypto::SecureDocumentStore::Build(doc, TestKey(), layout);
  CHECK_OK(store.status());
  if (!store.ok()) return;
  crypto::SoeDecryptor soe(TestKey(), layout, doc.size(),
                           store.value().chunk_count());

  // Cold: fragments [1..2] of chunk 0 need their two flanking leaves plus
  // the sibling of the upper half — 3 hashes.
  CHECK_EQ(soe.MissingProofNodes(0, 1, 2), uint64_t{3});

  crypto::BatchRequest req;
  req.runs.push_back({0, 64});  // Whole chunk 0.
  auto resp = store.value().ReadBatch(req);
  CHECK_OK(resp.status());
  std::vector<uint8_t> out(doc.size(), 0);
  CHECK_OK(soe.DecryptVerifiedBatch(req, resp.value(), out.data(),
                                    out.size()));

  // Warm: every node of chunk 0 is now authenticated — nothing to ship.
  CHECK_EQ(soe.MissingProofNodes(0, 1, 2), uint64_t{0});
  CHECK_EQ(soe.MissingProofNodes(0, 4, 7), uint64_t{0});
  // Chunk 1 stays cold.
  CHECK_EQ(soe.MissingProofNodes(1, 1, 2), uint64_t{3});
}

/// Drives a planner the way the navigator streams: every demand reaches
/// `reach_back` bytes back into the held prefix and four past it, so it
/// lands exactly on the previous batch's frontier. Every cached hash is
/// free (the probe prices nothing), so no coverage shaping widens a batch:
/// its width is the demand plus the readahead window.
class SequentialDriver {
 public:
  explicit SequentialDriver(index::FetchPlanner* planner,
                            uint64_t fragment_size = 32,
                            uint64_t reach_back = 4)
      : planner_(planner),
        fragment_size_(fragment_size),
        reach_back_(reach_back),
        valid_(planner->fragment_count(), false) {}

  /// Plans the next frontier demand, marks its runs held, returns them.
  std::vector<index::FragmentRun> Demand() {
    const uint64_t at = frontier_ * fragment_size_;
    return DemandAt(at < reach_back_ ? 0 : at - reach_back_, at + 4);
  }

  /// Plans the demand [begin, end) wherever it lies; the frontier moves
  /// to the end of its batch.
  std::vector<index::FragmentRun> DemandAt(uint64_t begin, uint64_t end) {
    auto runs = planner_->Plan(begin, end, valid_,
                               [](uint64_t, uint32_t, uint32_t) -> uint64_t {
                                 return 0;
                               });
    for (const auto& r : runs) {
      for (uint64_t f = r.begin_frag; f < r.end_frag; ++f) valid_[f] = true;
    }
    if (!runs.empty()) frontier_ = runs.back().end_frag;
    return runs;
  }

  uint64_t frontier() const { return frontier_; }

 private:
  index::FetchPlanner* planner_;
  uint64_t fragment_size_;
  uint64_t reach_back_;
  std::vector<bool> valid_;
  uint64_t frontier_ = 0;
};

index::FetchPlanner SequentialPlanner() {
  index::PlannerOptions opts;
  opts.gap_threshold_bytes = 0;
  opts.max_batch_bytes = 1 << 20;
  return index::FetchPlanner(/*document_bytes=*/16384, /*fragment_size=*/32,
                             /*chunk_size=*/256, opts);
}

uint64_t BatchFragments(const std::vector<index::FragmentRun>& runs) {
  uint64_t n = 0;
  for (const auto& r : runs) n += r.end_frag - r.begin_frag;
  return n;
}

TEST(SubFragmentSkipKeepsReadahead) {
  // A skip strictly inside one fragment cancels no transfer (the fragment
  // crosses the wire whole), so it must not cost the stream its window:
  // the next frontier batch is exactly the batch of a planner that never
  // saw the hint.
  index::FetchPlanner hinted = SequentialPlanner();
  index::FetchPlanner reference = SequentialPlanner();
  SequentialDriver a(&hinted), b(&reference);
  for (int i = 0; i < 5; ++i) {
    CHECK_EQ(BatchFragments(a.Demand()), BatchFragments(b.Demand()));
  }
  CHECK_EQ(a.frontier(), b.frontier());
  const uint64_t at = a.frontier() * 32;
  hinted.HintExcluded(at + 8, at + 24);
  CHECK_EQ(hinted.stats().hints_excluded, uint64_t{1});
  const auto runs = a.Demand();
  const auto expected = b.Demand();
  CHECK_EQ(runs.size(), expected.size());
  CHECK_EQ(runs.front().begin_frag, expected.front().begin_frag);
  CHECK_EQ(runs.back().end_frag, expected.back().end_frag);
  // The window kept doubling: far wider than demand plus one fragment.
  CHECK(BatchFragments(runs) >= 16);
}

TEST(FragmentSavingSkipRearmsCollapse) {
  // Once one exclusion has covered a whole fragment, the skips do save
  // transfers, and every later exclusion — sub-fragment ones included —
  // collapses the window: the next frontier batch is the demand's
  // fragment plus one (the window reseeded by the two-fragment demand).
  index::FetchPlanner planner = SequentialPlanner();
  SequentialDriver driver(&planner);
  for (int i = 0; i < 5; ++i) driver.Demand();
  CHECK(BatchFragments(driver.Demand()) >= 16);

  // A whole-fragment exclusion far past the frontier collapses at once.
  planner.HintExcluded(16384 - 64, 16384 - 32);
  CHECK_EQ(BatchFragments(driver.Demand()), uint64_t{2});

  // Sequential demands regrow the window...
  for (int i = 0; i < 3; ++i) driver.Demand();
  CHECK(BatchFragments(driver.Demand()) >= 8);
  // ... and now a skip inside one fragment collapses it again.
  const uint64_t at = driver.frontier() * 32;
  planner.HintExcluded(at + 8, at + 24);
  const auto runs = driver.Demand();
  CHECK_EQ(runs.size(), size_t{1});
  CHECK_EQ(runs[0].begin_frag, at / 32);
  CHECK_EQ(runs[0].end_frag, at / 32 + 2);
  CHECK_EQ(planner.stats().hints_excluded, uint64_t{2});
}

/// The planner of the priced-collapse tests: 64-byte fragments, 512-byte
/// chunks, the default four-chunk (2 KiB) horizon.
index::FetchPlanner PricedPlanner(uint64_t price) {
  index::PlannerOptions opts;
  opts.gap_threshold_bytes = 0;
  index::FetchPlanner planner(/*document_bytes=*/32768, /*fragment_size=*/64,
                              /*chunk_size=*/512, opts);
  planner.SetRoundTripPrice(price);
  return planner;
}

/// A scripted serve: one-fragment frontier demands grow the window, then a
/// skip inside one fragment, whole-fragment skips ahead of the frontier, a
/// jump past skipped bytes, a wanted range and a last sub-fragment skip.
/// Returns every batch's runs as "begin-end" fragment pairs.
std::vector<std::string> ScriptedServe(uint64_t price) {
  index::FetchPlanner planner = PricedPlanner(price);
  SequentialDriver driver(&planner, /*fragment_size=*/64, /*reach_back=*/0);
  std::vector<std::string> batches;
  auto record = [&](const std::vector<index::FragmentRun>& runs) {
    std::string batch;
    for (const auto& r : runs) {
      batch += std::to_string(r.begin_frag) + "-" +
               std::to_string(r.end_frag) + " ";
    }
    batches.push_back(batch);
  };
  auto demand = [&](int n) {
    for (int i = 0; i < n; ++i) record(driver.Demand());
  };
  auto at = [&](uint64_t frags) { return (driver.frontier() + frags) * 64; };
  demand(5);
  planner.HintExcluded(at(0) + 8, at(0) + 40);
  demand(1);
  planner.HintExcluded(at(3), at(7));
  demand(2);
  planner.HintExcluded(at(1), at(2) + 32);
  demand(1);
  record(driver.DemandAt(at(10), at(10) + 8));
  planner.HintWanted(at(2), at(6));
  demand(2);
  planner.HintExcluded(at(0) + 8, at(0) + 40);
  demand(3);
  return batches;
}

TEST(ZeroPriceKeepsTheCollapse) {
  // A price of 0 (every in-process source) is the collapse: each
  // exclusion after the first fragment-saving one zeroes the window.
  // These batches were recorded from the planner before it was priced.
  const std::vector<std::string> expected = {
      "0-1 ",   "1-3 ",   "3-7 ",         "7-15 ",  "15-31 ",
      "31-63 ", "63-64 ", "64-66 ",       "66-67 ", "77-78 ",
      "78-79 80-84 ",     "84-86 ",       "86-87 ", "87-89 ",
      "89-93 "};
  CHECK(ScriptedServe(0) == expected);
}

TEST(PriceAtHorizonKeepsReadaheadAcrossSkips) {
  // Bytes that cost nothing next to a round trip: exclusions never narrow
  // the window, so every frontier batch after a fragment-saving skip is
  // the batch of a planner that never saw one.
  index::FetchPlanner priced = PricedPlanner(/*price=*/2048);
  index::FetchPlanner reference = PricedPlanner(/*price=*/0);
  SequentialDriver a(&priced, 64, 0), b(&reference, 64, 0);
  for (int i = 0; i < 4; ++i) {
    CHECK_EQ(BatchFragments(a.Demand()), BatchFragments(b.Demand()));
  }
  for (int i = 0; i < 3; ++i) {
    // Whole fragments far past both frontiers: no batch reaches them.
    priced.HintExcluded(32768 - 512 + 128 * i, 32768 - 512 + 128 * i + 64);
    const auto runs = a.Demand();
    const auto expected = b.Demand();
    CHECK_EQ(runs.size(), expected.size());
    CHECK_EQ(runs.front().begin_frag, expected.front().begin_frag);
    CHECK_EQ(runs.back().end_frag, expected.back().end_frag);
  }
  CHECK_EQ(priced.stats().hints_excluded, uint64_t{3});
  CHECK(a.frontier() >= 32);  // Batches reached the 32-fragment horizon.
}

TEST(PriceSpeculatesWhatOneRoundTripIsWorth) {
  // 82 bytes buy one 64-byte fragment: after an exclusion the next
  // frontier batch is the demanded fragment plus exactly one more, where
  // a price of 0 fetches the demand alone.
  for (uint64_t price : {uint64_t{0}, uint64_t{82}}) {
    index::FetchPlanner planner = PricedPlanner(price);
    SequentialDriver driver(&planner, 64, 0);
    for (int i = 0; i < 4; ++i) driver.Demand();
    CHECK(BatchFragments(driver.Demand()) >= 16);
    planner.HintExcluded(32768 - 128, 32768 - 64);
    const uint64_t first = driver.frontier();
    const auto runs = driver.Demand();
    CHECK_EQ(runs.size(), size_t{1});
    CHECK_EQ(runs[0].begin_frag, first);
    CHECK_EQ(runs[0].end_frag, first + (price == 0 ? 1 : 2));
  }
}

TEST(SubFragmentSkipsStreamAtBatchHorizon) {
  // Round-trip regression on the paper's wide-and-flat shapes: the WSU and
  // Sigmod corpora prune only small records, so every serve that defers
  // nothing fetches the whole document — and, its skips all falling inside
  // fragments, must do so in batches near the horizon, not 256-512 B pages
  // (which took 126-254 round trips where about a dozen suffice).
  for (bench::CorpusFamily family :
       {bench::CorpusFamily::kWsu, bench::CorpusFamily::kSigmod}) {
    bench::CorpusSpec spec;
    spec.family = family;
    spec.target_bytes = 128 << 10;
    const std::string xml = bench::GenerateCorpus(spec).xml;
    server::DocumentConfig cfg;
    cfg.variant = index::Variant::kTcsbr;
    cfg.key = TestKey();
    cfg.shared_cache_capacity = 4096;
    server::DocumentService service;
    CHECK_OK(service.Publish("doc", xml, cfg));
    // Warm the shared cache: one full stream verifies every chunk.
    CHECK_OK(service.Serve("doc", std::vector<access::AccessRule>{},
                           pipeline::ServeOptions(/*skip=*/false, UINT64_MAX))
                 .status());

    // The serve's batch horizon: the planner resolves the default here.
    const uint64_t max_batch =
        index::FetchPlanner(0, cfg.layout.fragment_size, cfg.layout.chunk_size,
                            index::PlannerOptions{})
            .max_batch_bytes();
    uint64_t log2_frags = 0;
    while ((uint64_t{cfg.layout.fragment_size} << log2_frags) < max_batch) {
      ++log2_frags;
    }
    int checked = 0;
    for (bench::RuleFamily role : bench::AllRuleFamilies()) {
      auto rules =
          access::ParseRuleList(bench::RulesFor(family, role)).take();
      const std::string expected = DirectView(xml, rules);
      for (uint64_t budget : {UINT64_MAX, uint64_t{512}}) {
        auto report = service.Serve(
            "doc", rules, pipeline::ServeOptions(/*skip=*/true, budget));
        CHECK_OK(report.status());
        if (!report.ok() || report.value().drive.deferrals > 0) continue;
        const pipeline::ServeReport& r = report.value();
        ++checked;
        CHECK_EQ(r.view, expected);
        CHECK_EQ(r.bytes_fetched, r.encoded_bytes);
        const uint64_t bound =
            (r.encoded_bytes + max_batch - 1) / max_batch + log2_frags + 4;
        if (r.requests > bound) {
          ::csxa::testing::Fail(
              __FILE__, __LINE__,
              std::string(bench::FamilyName(family)) + "/" +
                  bench::RuleFamilyName(role) + ": " +
                  std::to_string(r.requests) + " requests, bound " +
                  std::to_string(bound));
        }
      }
    }
    CHECK(checked >= 6);
  }
}

TEST(PlannerBridgesSubThresholdGaps) {
  index::PlannerOptions opts;
  opts.gap_threshold_bytes = 64;  // Two 32-byte fragments.
  opts.max_batch_bytes = 1 << 20;
  index::FetchPlanner planner(/*document_bytes=*/1024, /*fragment_size=*/32,
                              /*chunk_size=*/1024, opts);
  std::vector<bool> valid(planner.fragment_count(), false);
  planner.HintWanted(0, 64);     // frags 0..1
  planner.HintWanted(128, 192);  // frags 4..5 (gap of 2 = threshold)
  planner.HintWanted(320, 352);  // frag 10 (gap of 4 > threshold)
  auto runs = planner.Plan(0, 32, valid);
  CHECK_EQ(runs.size(), size_t{2});
  CHECK_EQ(runs[0].begin_frag, uint64_t{0});
  CHECK_EQ(runs[0].end_frag, uint64_t{6});  // Gap 2..3 bridged.
  CHECK_EQ(runs[1].begin_frag, uint64_t{10});
  CHECK(planner.stats().gap_fragments_bridged >= 2);
}

}  // namespace

// Allocation regression test of the serve path: once the shared verified
// cache is warm, draining a view must not allocate per event. The view
// items borrow their text (tag names from a dictionary, values from the
// navigator's reused decode buffer), so a document of thousands of heap-
// sized texts drains allocating only per fetch batch and where the output
// and decode buffers grow.
//
// The binary replaces the global operator new with a counting one. A
// sanitizer build interposes its own allocator, so there the test reports
// itself skipped.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "access/access_rule.h"
#include "bench/corpus.h"
#include "server/document_service.h"
#include "testing.h"
#include "xml/serializer.h"

namespace {

std::atomic<uint64_t> g_allocations{0};

}  // namespace

#ifndef CSXA_SANITIZED
void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
// Not inlined: gcc's -Wmismatched-new-delete would otherwise see the
// free() of a pointer the replaced operator new returned.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
#endif

namespace {

using namespace csxa;  // NOLINT

#ifndef CSXA_SANITIZED
constexpr int kTexts = 2400;

/// `kTexts` records, each one text of 19 bytes: past any std::string's
/// inline capacity, so a per-text copy is a heap allocation. The fetch
/// path allocates per round trip (request and response framing, segment
/// and proof vectors), some 30 times per batch of up to four chunks, so
/// the texts are kept short enough that per-event costs dominate.
std::string Document() {
  std::string xml = "<Archive>";
  for (int i = 0; i < kTexts; ++i) {
    xml += "<Entry>entry " + std::to_string(100000 + i) +
           " &amp; more</Entry>";
  }
  xml += "</Archive>";
  return xml;
}

/// Allocations made while draining one serve of `doc` under `options`;
/// the view is checked against `expected`. `requests`, when set, receives
/// the serve's round trips.
uint64_t DrainAllocations(server::DocumentService* service,
                          const std::vector<access::AccessRule>& rules,
                          const pipeline::ServeOptions& options,
                          const std::string& expected,
                          uint64_t* requests = nullptr) {
  auto session = service->OpenSession("doc", rules, options);
  CHECK_OK(session.status());
  if (!session.ok()) return 0;
  xml::SerializingHandler ser;
  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  while (true) {
    auto item = session.value()->Next();
    CHECK_OK(item.status());
    if (!item.ok() || item.value().end) break;
    ser.Feed(item.value().event, item.value().depth);
  }
  const uint64_t allocations =
      g_allocations.load(std::memory_order_relaxed) - before;
  CHECK(ser.output() == expected);
  if (requests != nullptr) {
    *requests = session.value()->stream().fetcher().requests();
  }
  return allocations;
}
#endif

TEST(WarmGrantedDrainAllocatesLessThanOncePerFourTexts) {
#ifdef CSXA_SANITIZED
  std::printf("  skipped: the sanitizer runtime owns operator new\n");
#else
  const std::string xml = Document();
  auto rules = access::ParseRuleList("+ /Archive\n");
  CHECK_OK(rules.status());
  if (!rules.ok()) return;
  server::DocumentConfig cfg;
  cfg.backend = crypto::CipherBackendKind::kAes;
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", xml, cfg));
  // The first serve warms the shared verified cache.
  auto warm = service.Serve("doc", rules.value(), pipeline::ServeOptions());
  CHECK_OK(warm.status());
  if (!warm.ok()) return;
  CHECK(warm.value().view == xml);

  // Skip on: the granted root streams verbatim past the evaluator. Skip
  // off: every value goes through the evaluator and out on arrival.
  for (bool skip : {true, false}) {
    const uint64_t allocations =
        DrainAllocations(&service, rules.value(),
                         pipeline::ServeOptions(skip, UINT64_MAX), xml);
    std::printf("  skip=%d: %llu allocations for %d texts\n", skip ? 1 : 0,
                static_cast<unsigned long long>(allocations), kTexts);
    CHECK(allocations < kTexts / 4);
  }
#endif
}

TEST(WarmSkipDenseRoundTripsAllocateUnderFourEach) {
#ifdef CSXA_SANITIZED
  std::printf("  skipped: the sanitizer runtime owns operator new\n");
#else
  // Hospital needle: the grant names a rare tag, so the serve skips most
  // of the document and makes many small verified reads, most of them a
  // single fragment. Warm, each round trip's work is one leaf hash, one
  // decrypt, and the response the terminal link hands back (a segment
  // list and its ciphertext).
  bench::CorpusSpec spec;
  spec.family = bench::CorpusFamily::kHospital;
  spec.target_bytes = 512 << 10;
  const std::string xml = bench::GenerateCorpus(spec).xml;
  auto rules = access::ParseRuleList("+ //Protocol\n");
  CHECK_OK(rules.status());
  if (!rules.ok()) return;
  server::DocumentConfig cfg;
  cfg.backend = crypto::CipherBackendKind::kAes;
  cfg.shared_cache_capacity = 4096;
  server::DocumentService service;
  CHECK_OK(service.Publish("doc", xml, cfg));
  auto warm = service.Serve("doc", rules.value(), pipeline::ServeOptions());
  CHECK_OK(warm.status());
  if (!warm.ok()) return;
  // A second warm serve first, so the terminal link's pooled scratch has
  // grown too: the gate measures the steady state.
  uint64_t requests = 0;
  DrainAllocations(&service, rules.value(), pipeline::ServeOptions(),
                   warm.value().view, &requests);
  const uint64_t allocations =
      DrainAllocations(&service, rules.value(), pipeline::ServeOptions(),
                       warm.value().view, &requests);
  const double per_round_trip =
      requests == 0 ? 0.0 : static_cast<double>(allocations) / requests;
  std::printf("  %llu allocations for %llu round trips: %.2f each\n",
              static_cast<unsigned long long>(allocations),
              static_cast<unsigned long long>(requests), per_round_trip);
  CHECK(requests >= 500);
  CHECK(per_round_trip < 4.0);
#endif
}

TEST(WarmPendingPathServesAllocateFiveTimesLessThanPerInstanceHeap) {
#ifdef CSXA_SANITIZED
  std::printf("  skipped: the sanitizer runtime owns operator new\n");
#else
  // Warm 1 MiB serves of the pending-path rule sets. The evaluator pools
  // its predicate instances, keeps condition sets of up to two instances
  // inline, queues pending texts in one arena and keeps its slots'
  // watcher storage, so what is left is per round trip and per session.
  // `baseline` is what each serve allocated while every instance was a
  // reference-counted heap object and every queued text a string.
  struct Case {
    bench::CorpusFamily family;
    bench::RuleFamily rules;
    uint64_t budget;
    uint64_t baseline;
  };
  constexpr uint64_t kAll = UINT64_MAX;
  const Case cases[] = {
      {bench::CorpusFamily::kHospital, bench::RuleFamily::kGuarded, kAll,
       49645},
      {bench::CorpusFamily::kHospital, bench::RuleFamily::kGuarded, 512,
       29645},
      {bench::CorpusFamily::kHospital, bench::RuleFamily::kPredicateHeavy,
       kAll, 17516},
      {bench::CorpusFamily::kWsu, bench::RuleFamily::kGuarded, kAll, 51640},
      {bench::CorpusFamily::kWsu, bench::RuleFamily::kGuarded, 512, 51640},
      {bench::CorpusFamily::kWsu, bench::RuleFamily::kPredicateHeavy, kAll,
       26268},
      {bench::CorpusFamily::kSigmod, bench::RuleFamily::kGuarded, kAll,
       67484},
      {bench::CorpusFamily::kSigmod, bench::RuleFamily::kGuarded, 512,
       42393},
      {bench::CorpusFamily::kSigmod, bench::RuleFamily::kPredicateHeavy,
       kAll, 16190},
  };
  for (const Case& c : cases) {
    bench::CorpusSpec spec;
    spec.family = c.family;
    spec.seed = 1;
    spec.target_bytes = 1 << 20;
    const std::string xml = bench::GenerateCorpus(spec).xml;
    auto rules = access::ParseRuleList(bench::RulesFor(c.family, c.rules));
    CHECK_OK(rules.status());
    if (!rules.ok()) continue;
    server::DocumentConfig cfg;
    cfg.backend = crypto::CipherBackendKind::kAes;
    cfg.shared_cache_capacity = 4096;  // Every chunk of a 1 MiB document.
    server::DocumentService service;
    CHECK_OK(service.Publish("doc", xml, cfg));
    const pipeline::ServeOptions options(/*skip=*/true, c.budget);
    auto warm = service.Serve("doc", rules.value(), options);
    CHECK_OK(warm.status());
    if (!warm.ok()) continue;
    DrainAllocations(&service, rules.value(), options, warm.value().view);
    const uint64_t allocations = DrainAllocations(
        &service, rules.value(), options, warm.value().view);
    std::printf("  %s/%s budget %s: %llu allocations (baseline %llu)\n",
                bench::FamilyName(c.family), bench::RuleFamilyName(c.rules),
                c.budget == kAll ? "none" : std::to_string(c.budget).c_str(),
                static_cast<unsigned long long>(allocations),
                static_cast<unsigned long long>(c.baseline));
    CHECK(allocations * 5 <= c.baseline);
  }
#endif
}

}  // namespace

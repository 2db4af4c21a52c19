#include "bench/load_harness.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "access/access_rule.h"
#include "access/rule_evaluator.h"
#include "common/clock.h"
#include "common/thread_annotations.h"
#include "net/fault_proxy.h"
#include "net/remote_source.h"
#include "net/terminal_server.h"
#include "pipeline/serve_stream.h"
#include "server/document_service.h"
#include "xml/sax_parser.h"
#include "xml/serializer.h"

namespace csxa::bench {

namespace {

/// Same splitmix64 as the corpus generator: worker schedules must be a
/// pure function of (seed, thread) so two runs differ only by OS timing.
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
};

crypto::TripleDes::Key LoadKey(uint64_t seed) {
  crypto::TripleDes::Key key{};
  Rng rng{seed ^ 0x5ca1ab1eULL};
  for (size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<uint8_t>(rng.Next());
  }
  return key;
}

/// The single-session reference: a direct SAX pass over the plaintext
/// through the same evaluator/serializer — no store, no crypto, no
/// concurrency. What every served view is byte-checked against.
Result<std::string> DirectView(const std::string& xml,
                               const std::vector<access::AccessRule>& rules) {
  xml::SerializingHandler ser;
  access::RuleEvaluator eval(rules, &ser);
  CSXA_RETURN_NOT_OK(xml::SaxParser::Parse(xml, &eval));
  CSXA_RETURN_NOT_OK(eval.Finish());
  return ser.output();
}

/// Role ranks ordered by intended popularity: the cheap read-mostly roles
/// dominate (needle, closed world), the expensive predicate roles tail.
const RuleFamily kRoleByRank[] = {
    RuleFamily::kNeedle, RuleFamily::kClosedWorld, RuleFamily::kGuarded,
    RuleFamily::kPredicateHeavy};
constexpr int kRoles = 4;

/// Zipf-ish sampler over the 4 role ranks: P(rank r) ∝ 1/(r+1)^s.
struct ZipfRoles {
  double cumulative[kRoles];

  explicit ZipfRoles(double s) {
    double total = 0;
    for (int r = 0; r < kRoles; ++r) total += 1.0 / std::pow(r + 1, s);
    double acc = 0;
    for (int r = 0; r < kRoles; ++r) {
      acc += 1.0 / std::pow(r + 1, s) / total;
      cumulative[r] = acc;
    }
    cumulative[kRoles - 1] = 1.0;
  }
  int Pick(Rng* rng) const {
    const double u =
        static_cast<double>(rng->Below(1u << 30)) / (1u << 30);
    for (int r = 0; r < kRoles; ++r) {
      if (u < cumulative[r]) return r;
    }
    return kRoles - 1;
  }
};

uint64_t Percentile(const std::vector<uint64_t>& sorted, int p) {
  if (sorted.empty()) return 0;
  const size_t idx = (sorted.size() - 1) * static_cast<size_t>(p) / 100;
  return sorted[idx];
}

void AppendField(std::string* out, const char* name, uint64_t v,
                 bool comma = true) {
  *out += std::string("\"") + name + "\": " + std::to_string(v);
  if (comma) *out += ", ";
}

}  // namespace

uint64_t ReadPeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtoull(line + 6, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

Result<LoadReport> RunLoad(const LoadConfig& config) {
  if (config.families.empty() || config.threads <= 0 ||
      config.serves_per_thread <= 0) {
    return Status::InvalidArgument("load config needs families and threads");
  }
  const int versions = config.version_bumps + 1;

  // ---- Publish phase: corpora, references, version 0 -------------------
  struct Doc {
    std::string id;
    CorpusFamily family;
    std::vector<std::string> version_xml;  ///< [version]
    uint64_t max_depth = 0;
    std::vector<access::AccessRule> roles[kRoles];
    /// views[version][role]: the single-session reference matrix.
    std::vector<std::vector<std::string>> views;
  };
  std::vector<Doc> docs;
  server::DocumentService service;
  for (CorpusFamily family : config.families) {
    Doc doc;
    doc.id = FamilyName(family);
    doc.family = family;
    for (int v = 0; v < versions; ++v) {
      Corpus corpus = GenerateCorpus(
          {family, config.seed + static_cast<uint64_t>(v),
           config.target_bytes, /*depth=*/0});
      if (v == 0) doc.max_depth = corpus.max_depth;
      doc.version_xml.push_back(std::move(corpus.xml));
    }
    for (int r = 0; r < kRoles; ++r) {
      CSXA_ASSIGN_OR_RETURN(
          doc.roles[r],
          access::ParseRuleList(RulesFor(family, kRoleByRank[r])));
    }
    doc.views.resize(versions);
    for (int v = 0; v < versions; ++v) {
      for (int r = 0; r < kRoles; ++r) {
        CSXA_ASSIGN_OR_RETURN(std::string view,
                              DirectView(doc.version_xml[v], doc.roles[r]));
        doc.views[v].push_back(std::move(view));
      }
    }
    server::DocumentConfig cfg;
    cfg.variant = config.variant;
    cfg.layout = config.layout;
    cfg.key = LoadKey(config.seed);
    cfg.shared_cache_capacity = config.shared_cache_capacity;
    cfg.backend = config.backend;
    CSXA_RETURN_NOT_OK(service.Publish(doc.id, doc.version_xml[0], cfg));
    docs.push_back(std::move(doc));
  }

  // ---- Remote transport: a real TCP boundary under every serve ---------
  // The terminal server exposes the same live entries the in-process path
  // reads; the proxy (when weather is requested) sits between it and each
  // document's RemoteBatchSource. Geometry, keys and the shared digest
  // cache stay local, so nothing the wire mangles can change what a serve
  // will accept — only whether it completes.
  const bool faults_active = config.remote && config.fault_count > 0;
  std::unique_ptr<net::TerminalServer> terminal;
  std::unique_ptr<net::FaultProxy> proxy;
  if (config.remote) {
    terminal = std::make_unique<net::TerminalServer>();
    for (const Doc& doc : docs) {
      CSXA_ASSIGN_OR_RETURN(auto link, service.TerminalLink(doc.id));
      terminal->RegisterDocument(doc.id, std::move(link));
    }
    CSXA_RETURN_NOT_OK(terminal->Start());
    uint16_t attach_port = terminal->port();
    if (faults_active || config.rtt_ns > 0) {
      net::FaultProxy::Options popts;
      popts.upstream_port = terminal->port();
      popts.rtt_ns = config.rtt_ns;
      if (faults_active) {
        popts.program = net::FaultProxy::SeededProgram(
            config.fault_seed, config.fault_count, config.fault_horizon);
      }
      proxy = std::make_unique<net::FaultProxy>(std::move(popts));
      CSXA_RETURN_NOT_OK(proxy->Start());
      attach_port = proxy->port();
    }
    for (size_t d = 0; d < docs.size(); ++d) {
      net::RemoteBatchSource::Options ropts;
      ropts.port = attach_port;
      ropts.doc_id = docs[d].id;
      ropts.deadline_ns = 1'000'000'000;
      ropts.max_attempts = 6;
      ropts.backoff_initial_ns = 1'000'000;
      ropts.backoff_max_ns = 50'000'000;
      ropts.jitter_seed = config.seed * 1000003ULL + d;
      CSXA_RETURN_NOT_OK(service.AttachTransport(
          docs[d].id, std::make_shared<net::RemoteBatchSource>(ropts)));
    }
  }

  // ---- Racing phase: worker pool vs churn thread -----------------------
  // Cross-thread results: scalar tallies are atomics; everything that
  // cannot be (the latency samples, the per-document breakdowns) lives
  // behind one annotated mutex, so the clang thread-safety job proves no
  // worker touches a vector without it.
  struct RaceCounters {
    Mutex mu;
    std::vector<uint64_t> latencies CSXA_GUARDED_BY(mu);
    std::vector<uint64_t> doc_completed CSXA_GUARDED_BY(mu);
    std::vector<uint64_t> doc_rejections CSXA_GUARDED_BY(mu);
    std::atomic<uint64_t> attempted{0}, completed{0}, rejections{0};
    std::atomic<uint64_t> wrong_errors{0}, mismatches{0}, wire_total{0};
    std::atomic<uint64_t> decrypt_bytes{0}, decrypt_ns{0};
    std::atomic<uint64_t> hash_bytes{0}, hash_ns{0}, fetched_bytes{0};
    std::atomic<uint64_t> retries{0}, reconnects{0}, transport_rejected{0};
  } race;
  {
    MutexLock lock(&race.mu);
    race.doc_completed.assign(docs.size(), 0);
    race.doc_rejections.assign(docs.size(), 0);
  }
  const ZipfRoles zipf(config.zipf_s);

  auto serve_once = [&](size_t d, int role, uint64_t budget,
                        bool racing) {
    Doc& doc = docs[d];
    pipeline::ServeOptions opts;
    opts.pending_buffer_budget = budget;
    race.attempted.fetch_add(1);
    const uint64_t t0 = NowNs();
    auto report = service.Serve(doc.id, doc.roles[role], opts);
    const uint64_t dt = NowNs() - t0;
    if (report.ok()) {
      race.completed.fetch_add(1);
      race.wire_total.fetch_add(report.value().wire_bytes);
      race.decrypt_bytes.fetch_add(report.value().soe.bytes_decrypted +
                              report.value().soe.digest_bytes_decrypted);
      race.decrypt_ns.fetch_add(report.value().soe.decrypt_ns);
      race.hash_bytes.fetch_add(report.value().soe.bytes_hashed);
      race.hash_ns.fetch_add(report.value().soe.hash_ns);
      race.fetched_bytes.fetch_add(report.value().bytes_fetched);
      race.retries.fetch_add(report.value().retries);
      race.reconnects.fetch_add(report.value().reconnects);
      bool known = false;
      for (int v = 0; v < versions && !known; ++v) {
        known = report.value().view == doc.views[v][role];
      }
      MutexLock lock(&race.mu);
      race.latencies.push_back(dt);
      race.doc_completed[d]++;
      if (!known) race.mismatches.fetch_add(1);
    } else if ((racing || faults_active) &&
               report.status().code() == StatusCode::kIntegrityError) {
      // A bump raced this serve — or a tampering-class fault (truncated /
      // corrupted frame) hit it: failing closed is the contract.
      race.rejections.fetch_add(1);
      MutexLock lock(&race.mu);
      race.doc_rejections[d]++;
    } else if (faults_active &&
               (report.status().code() == StatusCode::kUnavailable ||
                report.status().code() == StatusCode::kDeadlineExceeded)) {
      // Programmed weather outlasted the retry ladder: a typed transport
      // failure is the contracted outcome, never a view.
      race.transport_rejected.fetch_add(1);
    } else {
      // Outside a race, or with a non-integrity code, a failure is a bug.
      // Surface the first offending status: a wrong-class count alone is
      // undiagnosable once the run ends.
      if (race.wrong_errors.fetch_add(1) == 0) {
        MutexLock lock(&race.mu);
        std::fprintf(stderr, "load: wrong-class failure: %s\n",
                     report.status().ToString().c_str());
      }
    }
  };

  const uint64_t wall0 = NowNs();
  std::vector<std::thread> workers;
  workers.reserve(config.threads);
  for (int t = 0; t < config.threads; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng{config.seed * 31 + static_cast<uint64_t>(t) * 7919};
      for (int i = 0; i < config.serves_per_thread; ++i) {
        const size_t d = rng.Below(docs.size());
        const int role = zipf.Pick(&rng);
        // Every third serve runs under a tight deferral budget, mixing
        // the skip-now-reread-later strategy into the traffic.
        const uint64_t budget =
            rng.Below(3) == 0 ? uint64_t{4096} : UINT64_MAX;
        serve_once(d, role, budget, /*racing=*/true);
      }
    });
  }
  std::thread churn([&]() {
    // Spread the bumps across the racing phase so early and late serves
    // see different versions; failures here are programming errors, not
    // load outcomes, so they surface as race.wrong_errors.
    for (int v = 1; v < versions; ++v) {
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
      for (Doc& doc : docs) {
        if (!service.Update(doc.id, doc.version_xml[v]).ok()) {
          race.wrong_errors.fetch_add(1);
        }
      }
    }
  });
  for (std::thread& w : workers) w.join();
  churn.join();

  // ---- Warm sweep: deterministic, single-threaded, final version -------
  if (config.warm_sweep) {
    for (size_t d = 0; d < docs.size(); ++d) {
      for (int r = 0; r < kRoles; ++r) {
        serve_once(d, r, UINT64_MAX, /*racing=*/false);
        serve_once(d, r, UINT64_MAX, /*racing=*/false);
      }
    }
  }
  const uint64_t wall = NowNs() - wall0;

  // ---- Remote teardown (before reporting, so fault tallies are final) --
  uint64_t faults_fired = 0;
  if (proxy != nullptr) {
    faults_fired = proxy->faults_fired();
    proxy->Stop();
  }
  if (terminal != nullptr) terminal->Stop();
  if (config.remote) {
    // Detaching releases each RemoteBatchSource, joining its reader.
    for (const Doc& doc : docs) {
      CSXA_RETURN_NOT_OK(service.AttachTransport(doc.id, nullptr));
    }
  }

  // ---- Report ----------------------------------------------------------
  // Workers and churn are joined; the lock is uncontended but still taken
  // so the guarded vectors' single reader is the one the analysis proves.
  MutexLock report_lock(&race.mu);
  LoadReport report;
  report.corpus_bytes = config.target_bytes;
  report.threads = config.threads;
  report.serves_per_thread = config.serves_per_thread;
  report.version_bumps = config.version_bumps;
  report.serves_attempted = race.attempted.load();
  report.serves_completed = race.completed.load();
  report.integrity_rejections = race.rejections.load();
  report.wrong_errors = race.wrong_errors.load();
  report.view_mismatches = race.mismatches.load();
  report.remote = config.remote;
  report.rtt_ns = config.rtt_ns;
  report.transport_retries = race.retries.load();
  report.transport_reconnects = race.reconnects.load();
  report.transport_rejections = race.transport_rejected.load();
  report.faults_programmed = faults_active ? config.fault_count : 0;
  report.faults_fired = faults_fired;
  report.wall_ns = wall;
  report.serves_per_sec =
      wall == 0 ? 0.0
                : static_cast<double>(race.completed.load()) * 1e9 /
                      static_cast<double>(wall);
  std::sort(race.latencies.begin(), race.latencies.end());
  report.p50_ns = Percentile(race.latencies, 50);
  report.p95_ns = Percentile(race.latencies, 95);
  report.p99_ns = Percentile(race.latencies, 99);
  report.wire_bytes_total = race.wire_total.load();
  report.peak_rss_kb = ReadPeakRssKb();
  report.backend = crypto::CipherBackendKindName(config.backend);
  report.backend_hardware =
      crypto::CipherBackendHardwareAccelerated(config.backend);
  report.hash_impl = crypto::Sha1::ImplementationName();
  auto mb_s = [](uint64_t bytes, uint64_t ns) {
    return ns == 0 ? 0.0
                   : static_cast<double>(bytes) * 1e9 /
                         (static_cast<double>(ns) * 1e6);
  };
  report.decrypt_mb_s = mb_s(race.decrypt_bytes.load(), race.decrypt_ns.load());
  report.hash_mb_s = mb_s(race.hash_bytes.load(), race.hash_ns.load());
  report.serve_mb_s = mb_s(race.fetched_bytes.load(), wall);

  uint64_t hits = 0, misses = 0;
  for (size_t d = 0; d < docs.size(); ++d) {
    LoadReport::DocReport dr;
    dr.family = docs[d].id;
    dr.document_bytes = docs[d].version_xml[0].size();
    dr.max_depth = docs[d].max_depth;
    dr.serves_completed = race.doc_completed[d];
    dr.integrity_rejections = race.doc_rejections[d];
    auto version = service.CurrentVersion(docs[d].id);
    dr.versions = version.ok() ? version.value() + 1 : 0;
    auto stats = service.CacheStats(docs[d].id);
    if (stats.ok()) {
      dr.cache = stats.value();
      hits += dr.cache.bare_hits;
      misses += dr.cache.misses;
    }
    report.docs.push_back(std::move(dr));
  }
  report.cache_hit_rate =
      hits + misses == 0
          ? 0.0
          : static_cast<double>(hits) / static_cast<double>(hits + misses);
  return report;
}

void LoadReport::AppendJson(std::string* out,
                            const std::string& indent) const {
  char buf[128];
  *out += "{\n" + indent + "  ";
  AppendField(out, "corpus_bytes", corpus_bytes);
  AppendField(out, "threads", static_cast<uint64_t>(threads));
  AppendField(out, "serves_per_thread",
              static_cast<uint64_t>(serves_per_thread));
  AppendField(out, "version_bumps", static_cast<uint64_t>(version_bumps),
              false);
  *out += ",\n" + indent + "  ";
  AppendField(out, "serves_attempted", serves_attempted);
  AppendField(out, "serves_completed", serves_completed);
  AppendField(out, "integrity_rejections", integrity_rejections);
  AppendField(out, "wrong_errors", wrong_errors);
  AppendField(out, "view_mismatches", view_mismatches, false);
  *out += ",\n" + indent + "  ";
  *out += std::string("\"remote\": ") + (remote ? "true" : "false") + ", ";
  AppendField(out, "rtt_ns", rtt_ns);
  AppendField(out, "transport_retries", transport_retries);
  AppendField(out, "transport_reconnects", transport_reconnects);
  AppendField(out, "transport_rejections", transport_rejections);
  AppendField(out, "faults_programmed", faults_programmed);
  AppendField(out, "faults_fired", faults_fired, false);
  *out += ",\n" + indent + "  ";
  AppendField(out, "wall_ns", wall_ns);
  std::snprintf(buf, sizeof(buf), "\"serves_per_sec\": %.2f, ",
                serves_per_sec);
  *out += buf;
  AppendField(out, "p50_ns", p50_ns);
  AppendField(out, "p95_ns", p95_ns);
  AppendField(out, "p99_ns", p99_ns, false);
  *out += ",\n" + indent + "  ";
  AppendField(out, "wire_bytes_total", wire_bytes_total);
  std::snprintf(buf, sizeof(buf), "\"cache_hit_rate\": %.3f, ",
                cache_hit_rate);
  *out += buf;
  AppendField(out, "peak_rss_kb", peak_rss_kb, false);
  *out += ",\n" + indent + "  ";
  *out += "\"backend\": \"" + backend + "\", ";
  *out += std::string("\"backend_hardware\": ") +
          (backend_hardware ? "true" : "false") + ", ";
  *out += "\"hash_impl\": \"" + hash_impl + "\", ";
  std::snprintf(buf, sizeof(buf),
                "\"decrypt_mb_s\": %.2f, \"hash_mb_s\": %.2f, "
                "\"serve_mb_s\": %.2f",
                decrypt_mb_s, hash_mb_s, serve_mb_s);
  *out += buf;
  *out += ",\n" + indent + "  \"documents\": [\n";
  for (size_t d = 0; d < docs.size(); ++d) {
    const DocReport& dr = docs[d];
    *out += indent + "    {\"family\": \"" + dr.family + "\", ";
    AppendField(out, "document_bytes", dr.document_bytes);
    AppendField(out, "max_depth", dr.max_depth);
    AppendField(out, "versions", dr.versions);
    AppendField(out, "serves_completed", dr.serves_completed);
    AppendField(out, "integrity_rejections", dr.integrity_rejections);
    AppendField(out, "cache_bare_hits", dr.cache.bare_hits);
    AppendField(out, "cache_misses", dr.cache.misses);
    AppendField(out, "cache_records", dr.cache.records);
    AppendField(out, "cache_evictions", dr.cache.evictions, false);
    *out += "}";
    *out += d + 1 < docs.size() ? ",\n" : "\n";
  }
  *out += indent + "  ]\n" + indent + "}";
}

}  // namespace csxa::bench

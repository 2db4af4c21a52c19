// Closed-loop service benchmark of the csxa server layer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//
// Publishes the workload's generated documents into a DocumentService,
// then runs kClients client threads for S seconds; each waits for its view
// before sending the next request. Every view is byte-checked against a
// direct-SAX reference. With --trace 0 the run prints the end-to-end
// metrics; with --trace 1 it records spans around the public calls of each
// layer (every other serve) plus isolated layer probes, and prints the
// per-layer metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is nonzero when any operation fell outside the contract.

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/load_harness.h"
#include "calibration.h"
#include "common/clock.h"
#include "crypto/cpu_features.h"
#include "crypto/sha1.h"
#include "probes.h"
#include "runner.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using csxa::NowNs;

/// Set-ups per run (setup_s is their median): at least kMinSetups, and
/// more, up to kMaxSetups, while they have taken less than kSetupBudgetNs
/// in all — small documents publish in milliseconds, where one sample is
/// mostly timer and scheduler noise.
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 25;
constexpr uint64_t kSetupBudgetNs = 1'000'000'000;
/// Rounds of Update() over every document timed after the phase on
/// workloads without in-loop updates: at least kMinUpdateRounds, and up to
/// kMaxUpdateRounds while they have taken less than kUpdateBudgetNs.
constexpr int kMinUpdateRounds = 8;
constexpr int kMaxUpdateRounds = 40;
constexpr uint64_t kUpdateBudgetNs = 1'000'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string spans_path;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = v;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = static_cast<int>(std::strtol(v, &end, 10));
    } else if (flag == "--trace") {
      args->trace = std::strcmp(v, "1") == 0;
      if (!args->trace && std::strcmp(v, "0") != 0) return false;
    } else if (flag == "--spans") {
      args->spans_path = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0 &&
         FindWorkload(args->workload) != nullptr;
}

// ---- Statistics and output ---------------------------------------------

/// Nearest-rank percentile (p in (0, 100]) of `ns`, in ms.
double PercentileMs(std::vector<uint64_t> ns, double p) {
  if (ns.empty()) return 0;
  std::sort(ns.begin(), ns.end());
  auto rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(ns.size())));
  rank = std::clamp<size_t>(rank, 1, ns.size());
  return static_cast<double>(ns[rank - 1]) / 1e6;
}

/// Shortest decimal that round-trips: every digit as measured.
std::string Num(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

class MetricTable {
 public:
  /// `scale` converts the measured value to the reported one (see
  /// calibration.h); 1 for counts and ratios.
  void Add(std::string name, double measured, std::string unit,
           uint64_t samples, double scale = 1.0) {
    rows_.push_back({std::move(name), measured, measured * scale,
                     std::move(unit), samples, false});
  }
  /// A row that is printed but left out of the JSON result: a figure the
  /// benchmark reports without bounding it.
  void AddInfo(std::string name, double measured, std::string unit,
               uint64_t samples, double scale = 1.0) {
    Add(std::move(name), measured, std::move(unit), samples, scale);
    rows_.back().info = true;
  }
  /// Human-readable lines: name, reported value, unit, sample count and,
  /// where calibration scaled it, the raw measurement.
  void Print() const {
    for (const Row& m : rows_) {
      std::printf("%s %-40s %22s %-7s n=%-7llu%s\n", m.info ? "info  " : "metric",
                  m.name.c_str(), Num(m.value).c_str(), m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples),
                  m.value == m.measured ? ""
                                        : (" raw=" + Num(m.measured)).c_str());
    }
  }
  std::string Json() const {
    std::string out;
    for (const Row& m : rows_) {
      if (m.info) continue;
      out += out.empty() ? "{" : ", ";
      out += "\"" + m.name + "\": {\"value\": " + Num(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Row {
    std::string name;
    double measured;
    double value;
    std::string unit;
    uint64_t samples;
    bool info;
  };
  std::vector<Row> rows_;
};

/// Sum of `field` over the samples, as a double.
template <typename Field>
double Sum(const std::vector<Sample>& samples, Field field) {
  double total = 0;
  for (const Sample& s : samples) total += static_cast<double>(field(s));
  return total;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Mean over groups of each group's median, in ms. Used for updates, where
/// the pooled median would sit between two documents' costs whenever they
/// split the samples evenly, and flip with the seed; each document's
/// median is stable on its own.
double MeanOfGroupMediansMs(const std::vector<std::pair<size_t, uint64_t>>& samples) {
  std::map<size_t, std::vector<uint64_t>> groups;
  for (const auto& [group, ns] : samples) groups[group].push_back(ns);
  double sum = 0;
  for (const auto& [group, ns] : groups) sum += PercentileMs(ns, 50);
  return groups.empty() ? 0.0 : sum / static_cast<double>(groups.size());
}

std::string EnvStamp(const Args& args, const WorkloadSpec& spec) {
  const bool backend_hw = csxa::crypto::CipherBackendHardwareAccelerated(spec.backend);
  const bool hash_hw = csxa::crypto::Sha1::HardwareAccelerated();
  // 3DES has no hardware path; AES or SHA-1 running in software is a
  // fallback (no AES-NI / SHA-NI, or CSXA_FORCE_PORTABLE set).
  const bool fallback =
      (spec.backend != csxa::crypto::CipherBackendKind::k3Des && !backend_hw) ||
      !hash_hw;
  const auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  std::string env = "{\"env\": {";
  env += "\"workload\": \"" + std::string(spec.name) + "\"";
  env += ", \"seed\": " + std::to_string(args.seed);
  env += ", \"seconds\": " + std::to_string(args.seconds);
  env += ", \"trace\": " + flag(args.trace);
  env += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  env += ", \"clients\": " + std::to_string(kClients);
  env += ", \"build_type\": \"" + std::string(PERFBENCH_BUILD_TYPE) + "\"";
  env += ", \"backend\": \"" +
         std::string(csxa::crypto::CipherBackendKindName(spec.backend)) + "\"";
  env += ", \"backend_hardware\": " + flag(backend_hw);
  env += ", \"hash_impl\": \"" +
         std::string(csxa::crypto::Sha1::ImplementationName()) + "\"";
  env += ", \"aes_ni\": " + flag(csxa::crypto::CpuHasAesNi());
  env += ", \"sha_ni\": " + flag(csxa::crypto::CpuHasShaNi());
  env += ", \"portable_fallback\": " + flag(fallback);
  return env + "}}";
}

/// Latency by serve class, so a reader can see which classes the
/// percentiles fall in.
void PrintClasses(const WorkloadSpec& spec,
                  const std::vector<std::unique_ptr<Document>>& docs,
                  const std::vector<Sample>& serves) {
  for (size_t d = 0; d < docs.size(); ++d) {
    for (size_t r = 0; r < spec.roles.size(); ++r) {
      for (bool tight : {false, true}) {
        std::vector<uint64_t> ns, first;
        for (const Sample& s : serves) {
          if (s.doc == d && s.role == r && s.tight == tight) {
            ns.push_back(s.latency_ns);
            first.push_back(s.first_event_ns);
          }
        }
        if (ns.empty()) continue;
        std::printf("class %-16s %-16s budget=%-5s n=%-5zu p50_ms=%-10s "
                    "max_ms=%-10s first_event_p50_ms=%s\n",
                    docs[d]->id.c_str(),
                    csxa::bench::RuleFamilyName(spec.roles[r]),
                    tight ? "tight" : "none", ns.size(),
                    Num(PercentileMs(ns, 50)).c_str(),
                    Num(PercentileMs(ns, 100)).c_str(),
                    Num(PercentileMs(first, 50)).c_str());
      }
    }
  }
}

int Run(const Args& args) {
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const auto key = KeyFor(args.seed);

  // ---- Inputs: corpora, rule sets, reference views (not timed) ---------
  auto made = MakeDocuments(spec, args.seed);
  if (!made.ok()) {
    std::fprintf(stderr, "perfbench: inputs: %s\n", made.status().ToString().c_str());
    return 2;
  }
  std::vector<std::unique_ptr<Document>> docs = made.take();

  // Calibration units run on this thread, beside the work it times here
  // (set-ups, update probes, layer probes).
  ClientLog main_log;

  // ---- Set-up, several times; the last deployment serves the run -------
  std::vector<uint64_t> setup_ns, scaled_setup_ns;
  std::vector<uint64_t> publish_ns;
  std::unique_ptr<Deployment> dep;
  uint64_t setup_total_ns = 0;
  for (int i = 0; i < kMinSetups ||
                  (i < kMaxSetups && setup_total_ns < kSetupBudgetNs);
       ++i) {
    dep.reset();
    const uint64_t unit = CalibrationUnitNs();
    main_log.calib_ns.push_back(unit);
    const uint64_t t0 = NowNs();
    auto started = Deployment::Start(spec, docs, key, args.seed, args.trace, &publish_ns);
    const uint64_t dt = NowNs() - t0;
    if (!started.ok()) {
      std::fprintf(stderr, "perfbench: set-up: %s\n",
                   started.status().ToString().c_str());
      return 2;
    }
    setup_total_ns += dt;
    setup_ns.push_back(dt);
    // Each set-up is short and single-threaded: scaled by the unit timed
    // right before it, like the post-phase updates.
    scaled_setup_ns.push_back(
        static_cast<uint64_t>(static_cast<double>(dt) * TimeScale({unit})));
    dep = started.take();
  }

  // ---- Warm-up: every (document, role, budget) once, checked -----------
  Runner runner(spec, &docs, dep.get());
  ClientLog warm;
  SpanLog unused;
  for (size_t d = 0; d < docs.size(); ++d) {
    for (size_t r = 0; r < spec.roles.size(); ++r) {
      runner.Serve(d, r, false, false, 0, &unused, &warm);
      if (spec.budget_share > 0) runner.Serve(d, r, true, false, 0, &unused, &warm);
    }
  }

  // ---- Timed phase: kClients closed-loop clients -----------------------
  runner.BeginCacheTally();
  std::vector<ClientLog> logs(kClients);
  std::atomic<uint64_t> serve_ids{1};
  const uint64_t epoch = NowNs();
  runner.set_epoch(epoch);
  const uint64_t deadline = epoch + static_cast<uint64_t>(args.seconds) * 1'000'000'000ULL;
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        runner.RunClient(c, args.seed, args.trace, deadline, &serve_ids, &logs[c]);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  uint64_t finished = epoch;
  for (const ClientLog& log : logs) finished = std::max(finished, log.finished_ns);
  const double wall_s = static_cast<double>(finished - epoch) / 1e9;
  const double cache_hit_ratio = runner.FinishCacheTally();

  // ---- Update timing where the workload has no in-loop updates ---------
  if (spec.update_share == 0) {
    const uint64_t t0 = NowNs();
    for (int round = 0; round < kMinUpdateRounds ||
                        (round < kMaxUpdateRounds && NowNs() - t0 < kUpdateBudgetNs);
         ++round) {
      for (size_t d = 0; d < docs.size(); ++d) {
        const uint64_t unit = CalibrationUnitNs();
        main_log.calib_ns.push_back(unit);
        const size_t before = main_log.updates.size();
        runner.Update(d, &main_log);
        if (main_log.updates.size() > before) main_log.updates.back().calib_ns = unit;
      }
    }
  }

  // ---- Layer probes (traced run) ---------------------------------------
  ProbeResults probes;
  if (args.trace) {
    main_log.calib_ns.push_back(CalibrationUnitNs());
    auto ran = RunProbes(spec, docs, key);
    if (!ran.ok()) {
      std::fprintf(stderr, "perfbench: probes: %s\n", ran.status().ToString().c_str());
      return 2;
    }
    probes = ran.value();
    main_log.calib_ns.push_back(CalibrationUnitNs());
  }

  // ---- Merge -----------------------------------------------------------
  ClientLog phase;  // all clients
  for (ClientLog& log : logs) {
    phase.serves.insert(phase.serves.end(), log.serves.begin(), log.serves.end());
    phase.updates.insert(phase.updates.end(), log.updates.begin(),
                         log.updates.end());
    phase.read_batch_ns.insert(phase.read_batch_ns.end(), log.read_batch_ns.begin(),
                               log.read_batch_ns.end());
    phase.calib_ns.insert(phase.calib_ns.end(), log.calib_ns.begin(),
                          log.calib_ns.end());
    phase.attempted += log.attempted;
    phase.failed += log.failed;
    if (phase.first_error.empty()) phase.first_error = log.first_error;
    phase.spans_jsonl += log.spans_jsonl;
  }
  const std::vector<Sample>& serves = phase.serves;
  const uint64_t attempted = warm.attempted + phase.attempted + main_log.attempted;
  const uint64_t failed = warm.failed + phase.failed + main_log.failed;
  std::string first_error = warm.first_error;
  if (first_error.empty()) first_error = phase.first_error;
  if (first_error.empty()) first_error = main_log.first_error;
  uint64_t stale_reopens = 0;
  for (const Sample& s : serves) stale_reopens += s.stale_reopens;

  // Wall times of the timed phase scale by the clients' calibration units,
  // main-thread times by the main thread's. On remote_rtt the phase is
  // dominated by injected wire time, which does not follow CPU speed, so
  // its phase times are reported as measured.
  const double phase_scale = spec.remote ? 1.0 : TimeScale(phase.calib_ns);
  const double main_scale = TimeScale(main_log.calib_ns);
  const bool churn = spec.update_share > 0;
  const std::vector<UpdateSample>& updates = churn ? phase.updates : main_log.updates;
  // Post-phase updates are single-threaded and short, so each is scaled by
  // the calibration unit timed right before it; in-loop updates scale with
  // the rest of the phase.
  std::vector<std::pair<size_t, uint64_t>> update_groups, scaled_update_groups;
  for (const UpdateSample& u : updates) {
    update_groups.push_back({u.doc, u.ns});
    const double scale = u.calib_ns == 0 ? phase_scale : TimeScale({u.calib_ns});
    scaled_update_groups.push_back(
        {u.doc, static_cast<uint64_t>(static_cast<double>(u.ns) * scale)});
  }
  const double update_ms = MeanOfGroupMediansMs(update_groups);
  const double update_scale =
      Ratio(MeanOfGroupMediansMs(scaled_update_groups), update_ms);

  const std::string env = EnvStamp(args, spec);
  std::printf("%s\n", env.c_str());
  if (env.find("\"portable_fallback\": true") != std::string::npos) {
    std::printf("WARNING: crypto fell back to a portable implementation\n");
  }
  std::printf("calibration unit_p50_ms phase=%s (n=%zu) main=%s (n=%zu) "
              "reference=%s; scale phase=%s main=%s\n",
              Num(PercentileMs(phase.calib_ns, 50)).c_str(), phase.calib_ns.size(),
              Num(PercentileMs(main_log.calib_ns, 50)).c_str(),
              main_log.calib_ns.size(),
              Num(static_cast<double>(kCalibReferenceNs) / 1e6).c_str(),
              Num(phase_scale).c_str(), Num(main_scale).c_str());
  std::printf("ops attempted=%llu failed=%llu failed_ops_frac=%s serves=%zu "
              "updates=%zu stale_reopens=%llu wall_s=%s\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              Num(Ratio(static_cast<double>(failed), static_cast<double>(attempted))).c_str(),
              serves.size(), updates.size(),
              static_cast<unsigned long long>(stale_reopens), Num(wall_s).c_str());
  if (failed > 0) std::printf("first failure: %s\n", first_error.c_str());
  PrintClasses(spec, docs, serves);

  const auto n = static_cast<uint64_t>(serves.size());
  const double dn = std::max<double>(1.0, static_cast<double>(n));
  MetricTable table;
  if (!args.trace) {
    std::vector<uint64_t> latency;
    for (const Sample& s : serves) latency.push_back(s.latency_ns);
    table.Add("setup_s", PercentileMs(setup_ns, 50) / 1e3, "s", setup_ns.size(),
              Ratio(PercentileMs(scaled_setup_ns, 50), PercentileMs(setup_ns, 50)));
    table.Add("serve_p50_ms", PercentileMs(latency, 50), "ms", n, phase_scale);
    table.Add("serve_p95_ms", PercentileMs(latency, 95), "ms", n, phase_scale);
    table.Add("serves_per_s", static_cast<double>(n) / wall_s, "1/s", n,
              1.0 / phase_scale);
    std::vector<uint64_t> first_event;
    for (const Sample& s : serves) first_event.push_back(s.first_event_ns);
    table.Add("wire_bytes_per_serve",
              Sum(serves, [](const Sample& s) { return s.wire_bytes; }) / dn, "B", n);
    table.Add("round_trips_per_serve",
              Sum(serves, [](const Sample& s) { return s.requests; }) / dn, "count", n);
    table.Add("update_p50_ms", update_ms, "ms", updates.size(), update_scale);
    table.Add("peak_rss_mb",
              static_cast<double>(csxa::bench::ReadPeakRssKb()) / 1024.0, "MiB", 1);
    // Reported, not bounded: the first event's position in the document
    // varies with the seed's content, so it is not a steady speed figure
    // (the per-layer server.open_session_us is).
    table.AddInfo("first_event_p50_ms", PercentileMs(first_event, 50), "ms", n,
                  phase_scale);
    table.AddInfo("failed_ops_frac",
                  Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
                  "ratio", attempted);
  } else {
    std::vector<Sample> traced;
    std::vector<uint64_t> traced_latency, untraced_latency;
    for (const Sample& s : serves) {
      (s.traced ? traced_latency : untraced_latency).push_back(s.latency_ns);
      if (s.traced) traced.push_back(s);
    }
    const auto nt = static_cast<uint64_t>(traced.size());
    const double dt = std::max<double>(1.0, static_cast<double>(nt));
    const auto per_serve = [&](auto field) { return Sum(traced, field) / dt; };
    const auto ms_per_serve = [&](auto field) { return Sum(traced, field) / dt / 1e6; };
    const auto total = [&](auto field) { return Sum(traced, field); };
    const double read_batch_p50_us = PercentileMs(phase.read_batch_ns, 50) * 1e3;
    const double untraced_p50 = PercentileMs(untraced_latency, 50);
    const uint64_t nb = phase.read_batch_ns.size();
    const double ps = phase_scale;
    const double ms = main_scale;

    // server
    table.Add("server.publish_ms", PercentileMs(publish_ns, 50), "ms",
              publish_ns.size(), ms);
    table.Add("server.update_ms", update_ms, "ms", updates.size(), update_scale);
    table.Add("server.open_session_us",
              ms_per_serve([](const Sample& s) { return s.open_ns; }) * 1e3, "us",
              nt, ps);
    table.Add("server.stale_reopens_per_1k",
              1000.0 * static_cast<double>(stale_reopens) / dn, "count", n);
    // publish-path probes
    table.Add("xml.parse_ms_per_mb", probes.parse_ms_per_mib, "ms/MiB",
              kProbeRepeats, ms);
    table.Add("index.encode_ms_per_mb", probes.encode_ms_per_mib, "ms/MiB",
              kProbeRepeats, ms);
    table.Add("crypto.store_build_ms_per_mb", probes.store_build_ms_per_mib,
              "ms/MiB", kProbeRepeats, ms);
    // terminal
    table.Add("terminal.read_batch_us", read_batch_p50_us, "us", nb, ps);
    table.Add("terminal.read_batch_ms_per_serve",
              ms_per_serve([](const Sample& s) { return s.read_batch_ns; }), "ms",
              nt, ps);
    table.Add("net.overhead_us",
              read_batch_p50_us - static_cast<double>(spec.rtt_ns) / 1e3, "us", nb,
              ps);
    // crypto
    table.Add("crypto.decrypt_ms_per_serve",
              ms_per_serve([](const Sample& s) { return s.decrypt_ns; }), "ms", nt, ps);
    table.Add("crypto.hash_ms_per_serve",
              ms_per_serve([](const Sample& s) { return s.hash_ns; }), "ms", nt, ps);
    table.Add("crypto.decrypt_mb_s",
              Ratio(total([](const Sample& s) { return s.decrypt_bytes; }),
                    total([](const Sample& s) { return s.decrypt_ns; })) * 1e3,
              "MB/s", nt, 1.0 / ps);
    table.Add("crypto.hash_mb_s",
              Ratio(total([](const Sample& s) { return s.hash_bytes; }),
                    total([](const Sample& s) { return s.hash_ns; })) * 1e3,
              "MB/s", nt, 1.0 / ps);
    table.Add("crypto.cache_hit_ratio", cache_hit_ratio, "ratio", n);
    table.Add("crypto.proof_hashes_per_serve",
              per_serve([](const Sample& s) { return s.proof_hashes; }), "count", nt);
    table.Add("crypto.digest_bytes_per_serve",
              per_serve([](const Sample& s) { return s.digest_bytes; }), "B", nt);
    // index
    table.Add("index.fetched_over_encoded",
              Ratio(total([](const Sample& s) { return s.bytes_fetched; }),
                    total([](const Sample& s) { return s.encoded_bytes; })),
              "ratio", nt);
    table.Add("index.gap_fragments_bridged_per_serve",
              per_serve([](const Sample& s) { return s.gap_fragments; }), "count", nt);
    table.Add("index.speculation_waste_bytes_per_serve",
              per_serve([](const Sample& s) { return s.speculation_waste; }), "B", nt);
    table.Add("index.stream_all_fallbacks_frac",
              per_serve([](const Sample& s) { return s.stream_all_fallbacks; }),
              "ratio", nt);
    table.Add("index.decode_probe_ms_per_mb", probes.decode_ms_per_mib, "ms/MiB",
              kProbeRepeats, ms);
    // access
    table.Add("access.evaluate_probe_ms_per_mb", probes.evaluate_ms_per_mib,
              "ms/MiB", kProbeRepeats, ms);
    table.Add("access.events_in_per_serve",
              per_serve([](const Sample& s) { return s.events_in; }), "count", nt);
    table.Add("access.events_pruned_frac",
              Ratio(total([](const Sample& s) { return s.events_pruned; }),
                    total([](const Sample& s) { return s.events_in; })),
              "ratio", nt);
    table.Add("access.peak_buffered_kb",
              per_serve([](const Sample& s) { return s.peak_buffered_bytes; }) / 1024.0,
              "KiB", nt);
    table.Add("access.predicates_spawned_per_serve",
              per_serve([](const Sample& s) { return s.predicates; }), "count", nt);
    table.Add("access.watcher_subscriptions_per_serve",
              per_serve([](const Sample& s) { return s.watchers; }), "count", nt);
    table.Add("access.skips_advised_frac",
              Ratio(total([](const Sample& s) { return s.skips_advised; }),
                    total([](const Sample& s) { return s.skip_checks; })),
              "ratio", nt);
    // pipeline
    table.Add("pipeline.next_self_ms_per_serve",
              ms_per_serve([](const Sample& s) { return s.next_self_ns; }), "ms", nt,
              ps);
    table.Add("pipeline.skipped_bytes_frac",
              Ratio(total([](const Sample& s) { return s.skipped_bits; }) / 8.0,
                    total([](const Sample& s) { return s.encoded_bytes; })),
              "ratio", nt);
    table.Add("pipeline.deferrals_per_serve",
              per_serve([](const Sample& s) { return s.deferrals; }), "count", nt);
    table.Add("pipeline.reread_fetched_bytes_per_serve",
              per_serve([](const Sample& s) { return s.reread_fetched; }), "B", nt);
    // xml
    table.Add("xml.serialize_ms_per_serve",
              ms_per_serve([](const Sample& s) { return s.serialize_ns; }), "ms", nt,
              ps);
    // net
    table.Add("net.retries_per_serve",
              Sum(serves, [](const Sample& s) { return s.retries; }) / dn, "count", n);
    table.Add("net.reconnects",
              Sum(serves, [](const Sample& s) { return s.reconnects; }), "count", n);
    // tracing
    table.Add("trace.overhead_frac",
              Ratio(PercentileMs(traced_latency, 50) - untraced_p50, untraced_p50),
              "ratio", n);

    if (!args.spans_path.empty()) {
      std::FILE* f = std::fopen(args.spans_path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", args.spans_path.c_str());
        return 2;
      }
      std::fprintf(f, "%s\n", env.c_str());
      std::fwrite(phase.spans_jsonl.data(), 1, phase.spans_jsonl.size(), f);
      std::fclose(f);
      std::printf("spans written to %s\n", args.spans_path.c_str());
    }
  }
  table.Print();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), table.Json().c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload {%s} --seed N --seconds S "
                 "--trace 0|1 [--spans PATH]\n",
                 perfbench::WorkloadNames().c_str());
    return 2;
  }
  return perfbench::Run(args);
}

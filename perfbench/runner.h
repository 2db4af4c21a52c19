#ifndef PERFBENCH_RUNNER_H_
#define PERFBENCH_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/fault_proxy.h"
#include "net/terminal_server.h"
#include "server/document_service.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

/// One published set-up of a workload: the service, and for remote
/// workloads the terminal server and pacing proxy in front of it. Every
/// document is TCSBR under DocumentConfig's default chunk layout. When
/// `traced`, every document's terminal link is wrapped in a
/// TimedBatchSource through AttachTransport.
class Deployment {
 public:
  static csxa::Result<std::unique_ptr<Deployment>> Start(
      const WorkloadSpec& spec,
      const std::vector<std::unique_ptr<Document>>& docs,
      const csxa::crypto::TripleDes::Key& key, uint64_t seed, bool traced,
      std::vector<uint64_t>* publish_ns);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  csxa::server::DocumentService& service() { return service_; }

 private:
  Deployment() = default;

  csxa::server::DocumentService service_;
  std::unique_ptr<csxa::net::TerminalServer> terminal_;
  std::unique_ptr<csxa::net::FaultProxy> proxy_;
  std::vector<std::string> ids_;
};

/// Counters of one completed serve, read from the session's stream (the
/// getters DrainServeStream copies into a ServeReport).
struct Sample {
  uint32_t doc = 0;
  uint32_t role = 0;
  bool tight = false;   ///< Served under kTightBudget.
  bool traced = false;
  uint64_t latency_ns = 0;      ///< OpenSession -> Next() reports the end.
  uint64_t first_event_ns = 0;  ///< OpenSession -> first successful Next().
  uint64_t stale_reopens = 0;
  uint64_t encoded_bytes = 0;
  uint64_t wire_bytes = 0;
  uint64_t requests = 0;
  uint64_t bytes_fetched = 0;
  uint64_t proof_hashes = 0;
  uint64_t digest_bytes = 0;
  uint64_t gap_fragments = 0;
  uint64_t speculation_waste = 0;
  uint64_t stream_all_fallbacks = 0;
  uint64_t retries = 0;
  uint64_t reconnects = 0;
  uint64_t decrypt_bytes = 0;
  uint64_t hash_bytes = 0;
  uint64_t decrypt_ns = 0;
  uint64_t hash_ns = 0;
  uint64_t events_in = 0;
  uint64_t events_pruned = 0;
  uint64_t predicates = 0;
  uint64_t watchers = 0;
  uint64_t peak_buffered_bytes = 0;
  uint64_t skip_checks = 0;
  uint64_t skips_advised = 0;
  uint64_t skipped_bits = 0;
  uint64_t deferrals = 0;
  uint64_t reread_fetched = 0;
  // Traced serves only, from the spans.
  uint64_t open_ns = 0;
  uint64_t next_self_ns = 0;  ///< Σ Next() self time − decrypt − hash.
  uint64_t read_batch_ns = 0;
  uint64_t serialize_ns = 0;
};

struct UpdateSample {
  uint32_t doc = 0;
  uint64_t ns = 0;
  /// Calibration unit timed right before this update (0 = none).
  uint64_t calib_ns = 0;
};

/// What one client thread (or the main thread) produced.
struct ClientLog {
  std::vector<Sample> serves;
  std::vector<UpdateSample> updates;
  std::vector<uint64_t> read_batch_ns;  ///< Per batch, traced serves.
  std::vector<uint64_t> calib_ns;       ///< Calibration units run.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t finished_ns = 0;
  std::string spans_jsonl;
  uint64_t spans_retained = 0;
  std::string first_error;
};

/// Drives serves and updates against a deployment and checks every view.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, std::vector<std::unique_ptr<Document>>* docs,
         Deployment* dep)
      : spec_(spec), docs_(*docs), dep_(dep) {}

  /// One serve: open, pull every event, serialize, byte-check. A stale
  /// serve on a churning workload re-opens on the current version.
  void Serve(size_t d, size_t role, bool tight, bool traced, uint64_t serve_id,
             SpanLog* log, ClientLog* out);

  /// One Update: bumps document `d` to its next content.
  void Update(size_t d, ClientLog* out);

  /// The closed loop of one client until `deadline_ns`. With `trace_run`,
  /// every other serve is traced.
  void RunClient(int client, uint64_t seed, bool trace_run,
                 uint64_t deadline_ns, std::atomic<uint64_t>* serve_ids,
                 ClientLog* out);

  /// Shared-cache accounting over the timed phase, across version bumps:
  /// Begin at its start, Finish returns bare_hits / (bare_hits + misses).
  void BeginCacheTally();
  double FinishCacheTally();

  void set_epoch(uint64_t epoch_ns) { epoch_ns_ = epoch_ns; }

 private:
  struct CacheTally {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  static void Fail(ClientLog* out, std::string why);
  /// Folds the current version's cache stats into the accumulator; the
  /// caller holds the document's update_mu.
  void TallyCacheLocked(size_t d);

  const WorkloadSpec& spec_;
  std::vector<std::unique_ptr<Document>>& docs_;
  Deployment* dep_;
  uint64_t epoch_ns_ = 0;
  std::vector<CacheTally> cache_acc_;   ///< [doc], under its update_mu.
  std::vector<CacheTally> cache_base_;  ///< [doc], under its update_mu.
};

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_H_

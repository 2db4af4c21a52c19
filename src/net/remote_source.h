#ifndef CSXA_NET_REMOTE_SOURCE_H_
#define CSXA_NET_REMOTE_SOURCE_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "crypto/secure_store.h"
#include "net/transport.h"

namespace csxa::net {

/// What one round trip on a link is worth in bytes: its bandwidth-delay
/// product, the quantity BBR estimates from minimum RTT and maximum
/// delivery rate. A pure function of the round trips added, in any order.
///
/// Model: a round trip carrying b bytes takes L + b/B, latency L plus
/// transfer at delivery rate B. Queueing behind other requests on a
/// pipelined link only adds time, so each size class (log2 of the bytes)
/// keeps only its fastest round trip. The anchor is the fastest of all.
/// Of the classes carrying at least twice the anchor's bytes, the widest
/// reads the rate B: its extra bytes over its extra time. A delay on the
/// anchor shortens every class's extra time by the same amount, which
/// inflates a narrow class's reading most and the widest one's least. L
/// is the anchor's time less its own bytes' transfer at B, and the price
/// is L × B. It is
///  - 0 until the round trips span a factor of two in size: one size
///    cannot tell latency from transfer;
///  - UINT64_MAX when the widest class takes no longer than the anchor
///    beyond the latency noise (a quarter of the anchor's time), or no
///    class reads a rate (the fastest round trip is among the largest).
///    Bytes then cost nothing next to the latency, as on loopback.
class LinkPriceEstimate {
 public:
  /// One round trip of `ns` from the request's write to its waiter's
  /// wake-up, carrying `bytes` of request and response records.
  void Add(uint64_t ns, uint64_t bytes);
  uint64_t price_bytes() const { return price_bytes_; }

 private:
  struct Fastest {
    uint64_t ns = UINT64_MAX;
    uint64_t bytes = 0;
  };
  std::array<Fastest, 65> fastest_{};  ///< By std::bit_width(bytes).
  uint64_t price_bytes_ = 0;
};

/// The SOE's async terminal link: a crypto::BatchSource whose ReadBatch
/// crosses a TCP connection to a TerminalServer (or csxa_stored). One
/// instance is shared by every session of a document; concurrent
/// ReadBatch calls pipeline on a single connection — each request is
/// tagged with a correlation id, a dedicated reader thread demultiplexes
/// responses to their waiters, so N sessions keep N requests in flight
/// over one socket instead of N sockets idling on round trips.
///
/// Failure semantics (the robustness contract this layer exists for):
///  - *Retryable, typed*: connect refused, per-request deadline elapsed,
///    mid-stream disconnect, desynchronized stream. Each triggers
///    bounded exponential backoff with deterministic jitter, a fresh
///    connection when the old one is suspect, and a re-sent request —
///    up to max_attempts, then the last kUnavailable/kDeadlineExceeded
///    surfaces to the serve, which fails closed.
///  - *Terminal*: a response record that parses as a frame but fails
///    crypto::DecodeBatchResponse, and any server-relayed
///    kIntegrityError/kInvalidArgument. Never retried — wire tampering
///    is indistinguishable from corruption and must fail the serve.
///
/// Reconnect re-verifies, never re-trusts: this class hands bytes to the
/// caller's SoeDecryptor exactly like an in-process source, so a chunk
/// re-fetched after a reconnect passes the same digest chain (or, warm,
/// the shared verified-digest cache authenticates it bare) as the first
/// attempt. A terminal that answers a retry with different bytes fails
/// verification; it cannot split the view.
class RemoteBatchSource : public crypto::BatchSource {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    std::string doc_id;
    /// Per-attempt response deadline. 0 means wait forever (tests only).
    uint64_t deadline_ns = 2'000'000'000;
    /// Total tries per ReadBatch (first attempt + retries).
    uint32_t max_attempts = 4;
    /// Exponential backoff between retries: initial << attempt, capped,
    /// scaled by a deterministic jitter in [1/2, 1) (splitmix64 over
    /// jitter_seed — seeded like the corpus generator, so a failing run
    /// replays byte-for-byte).
    uint64_t backoff_initial_ns = 1'000'000;
    uint64_t backoff_max_ns = 100'000'000;
    uint64_t jitter_seed = 0x9E3779B97F4A7C15ULL;
  };

  explicit RemoteBatchSource(Options options) : options_(std::move(options)) {}
  ~RemoteBatchSource() override;
  RemoteBatchSource(const RemoteBatchSource&) = delete;
  RemoteBatchSource& operator=(const RemoteBatchSource&) = delete;

  /// One batched round trip with the full retry ladder. Thread-safe;
  /// const because BatchSource reads are logically pure — the mutable
  /// machinery below is connection state, not document state.
  Result<crypto::BatchResponse> ReadBatch(
      const crypto::BatchRequest& request) const override;

  /// Retries/reconnects so far (the fetcher's per-serve counters are
  /// deltas of this), and the round-trip price measured on this link's
  /// request round trips so far (LinkPriceEstimate).
  TransportStats transport_stats() const override CSXA_EXCLUDES(mu_);

 private:
  /// One request waiting for its response record.
  struct Waiter {
    bool done = false;
    Status error = Status::OK();       ///< Set when the attempt failed.
    std::vector<uint8_t> payload;      ///< Response frame when it did not.
  };

  /// Ensures a live, document-bound connection; joins parked reader
  /// threads (outside mu_) before dialing a new one.
  Status EnsureConnected() const CSXA_EXCLUDES(mu_);
  /// Dials and binds a fresh connection to options_.doc_id (the bind
  /// round trip runs under a receive timeout so a stalled link cannot
  /// wedge the dialer).
  Result<int> DialAndBind() const;
  /// Reader thread body: demultiplexes response records to waiters until
  /// the connection dies, then fails every pending waiter (retryable).
  void ReaderLoop(int fd, uint64_t my_epoch) const CSXA_EXCLUDES(mu_);
  /// Wakes the reader with shutdown(), marks the connection gone, parks
  /// the reader handle for joining, and fails pending waiters so their
  /// callers retry. The reader itself closes the fd when it unblocks —
  /// single-owner close, so a recycled fd number can never be hit.
  void DropConnectionLocked(const char* why) const CSXA_REQUIRES(mu_);
  /// Fails every pending waiter with a retryable error.
  void FailWaitersLocked(const char* why) const CSXA_REQUIRES(mu_);
  /// Deterministic backoff pause before retry number `attempt` (>= 1).
  void BackoffPause(uint32_t attempt) const CSXA_EXCLUDES(mu_);

  const Options options_;

  mutable Mutex mu_;
  mutable CondVar cv_;
  mutable int fd_ CSXA_GUARDED_BY(mu_) = -1;
  /// Bumped on every teardown; a reader learns it is stale by comparing.
  mutable uint64_t epoch_ CSXA_GUARDED_BY(mu_) = 0;
  mutable uint64_t next_id_ CSXA_GUARDED_BY(mu_) = 1;
  mutable std::map<uint64_t, Waiter*> waiters_ CSXA_GUARDED_BY(mu_);
  mutable std::thread reader_ CSXA_GUARDED_BY(mu_);
  /// Reader handles of torn-down connections, joined (never under mu_ —
  /// a parked reader may still need one last mu_ acquisition to learn it
  /// is stale) by the next dial or the destructor.
  mutable std::vector<std::thread> parked_ CSXA_GUARDED_BY(mu_);
  mutable bool ever_connected_ CSXA_GUARDED_BY(mu_) = false;
  mutable uint64_t jitter_state_ CSXA_GUARDED_BY(mu_) = 0;
  mutable uint64_t retries_ CSXA_GUARDED_BY(mu_) = 0;
  mutable uint64_t reconnects_ CSXA_GUARDED_BY(mu_) = 0;
  /// Shared by every session on the link: each learns from all of them.
  mutable LinkPriceEstimate price_ CSXA_GUARDED_BY(mu_);
};

}  // namespace csxa::net

#endif  // CSXA_NET_REMOTE_SOURCE_H_

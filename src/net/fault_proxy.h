#ifndef CSXA_NET_FAULT_PROXY_H_
#define CSXA_NET_FAULT_PROXY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "net/transport.h"

namespace csxa::net {

/// Deterministic network weather between RemoteBatchSource and
/// TerminalServer: a record-aware TCP proxy that injects latency,
/// bandwidth limits, and a *programmed* schedule of faults. Determinism
/// is the point — like the corpus generator, a proxy is a pure function
/// of its options (plus a seed for generated programs), so a fault run
/// that fails replays exactly.
///
/// The proxy parses the record framing in both directions (it must, to
/// aim faults at response boundaries) but understands nothing of the
/// payloads: it is the untrusted network made flesh, and everything it
/// mangles must come out of the client as a typed retry or a terminal
/// IntegrityError — never a view.
class FaultProxy {
 public:
  /// What to do to one server->client response record.
  enum class Fault : uint32_t {
    kNone = 0,
    /// Forward the first `arg` bytes of the serialized record, then go
    /// silent (swallow everything further on this connection). The
    /// client's deadline fires; its retry dials a fresh connection.
    kDropAfterBytes,
    /// Halve the record's payload and rewrite the length header to
    /// match: a well-framed record whose frame no longer parses — the
    /// client must fail terminally (IntegrityError), not retry.
    kTruncateFrame,
    /// XOR one payload byte (position `arg` mod length): wire tampering;
    /// terminal IntegrityError at frame decode or digest verification.
    kCorruptByte,
    /// Sleep `arg` ns before forwarding (default: 3x the record's usual
    /// path). Past the client deadline this means timeout -> retry; the
    /// late record arrives on a torn-down connection and evaporates.
    kStall,
    /// Forward the first half of the record, then close both sides:
    /// mid-response disconnect -> retryable -> reconnect and re-verify.
    kCloseMidResponse,
    /// Forward the record twice; the duplicate must be discarded by the
    /// client demux (no waiter), proving replayed responses are inert.
    kDuplicateResponse,
  };

  struct FaultEvent {
    Fault fault = Fault::kNone;
    /// Which server->client response record (0-based, counted across the
    /// proxy's lifetime) the fault hits.
    uint64_t response_index = 0;
    /// Fault argument: bytes for kDropAfterBytes, ns for kStall, byte
    /// position for kCorruptByte; unused otherwise.
    uint64_t arg = 0;
  };

  struct Options {
    uint16_t listen_port = 0;  ///< 0 = ephemeral loopback port.
    std::string upstream_host = "127.0.0.1";
    uint16_t upstream_port = 0;
    /// Round-trip time to inject: each record pays rtt_ns/2 per
    /// direction, so one request/response round trip pays the full RTT.
    uint64_t rtt_ns = 0;
    /// Bytes per second per direction (0 = unlimited): each record adds
    /// size/bandwidth of serialization delay.
    uint64_t bandwidth_bytes_per_s = 0;
    std::vector<FaultEvent> program;
  };

  /// A reproducible mixed-fault program: `count` events spread over the
  /// first `horizon` responses, fault kinds and arguments drawn with
  /// splitmix64 from `seed` — the proxy analogue of the corpus
  /// generator's seeded families.
  static std::vector<FaultEvent> SeededProgram(uint64_t seed, uint64_t count,
                                               uint64_t horizon);

  FaultProxy() = default;
  explicit FaultProxy(Options options) : options_(std::move(options)) {}
  ~FaultProxy() { Stop(); }
  FaultProxy(const FaultProxy&) = delete;
  FaultProxy& operator=(const FaultProxy&) = delete;

  Status Start();
  void Stop() { listener_.Stop(); }
  uint16_t port() const { return listener_.port(); }

  /// Responses forwarded (or mangled) so far, and faults actually fired.
  uint64_t responses_seen() const CSXA_EXCLUDES(mu_);
  uint64_t faults_fired() const CSXA_EXCLUDES(mu_);

 private:
  /// Dials upstream for one accepted client (on the connection's own
  /// thread, so the accept loop never waits on a connect) and pumps both
  /// directions until either side leaves. A refused upstream returns at
  /// once: the listener closes the client, which must retry.
  void ServeConnection(int client_fd);
  /// Forwards records from `from` to `to`, paced; with `responses` set,
  /// each record claims a response index and suffers its programmed fault.
  void Pump(int from_fd, int to_fd, bool responses);
  /// Claims the global index for the next response record and the fault
  /// (if any) programmed for it.
  FaultEvent NextResponseFault() CSXA_EXCLUDES(mu_);
  void PacingSleep(size_t bytes) const;

  Options options_;
  mutable Mutex mu_;
  uint64_t response_counter_ CSXA_GUARDED_BY(mu_) = 0;
  uint64_t faults_fired_ CSXA_GUARDED_BY(mu_) = 0;
  Listener listener_;  ///< Last: stopped before the members above go.
};

}  // namespace csxa::net

#endif  // CSXA_NET_FAULT_PROXY_H_

#ifndef CSXA_NET_TRANSPORT_H_
#define CSXA_NET_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"

/// Byte-level transport under the batched verified-fetch protocol.
///
/// The crypto/wire_format frames ('QXSC' request / 'RXSC' response) are
/// length-explicit but carry no outer delimiter — they were built for an
/// in-process round trip that hands the peer an exact span. A TCP stream
/// needs reassembly and, for pipelining, correlation; both live in a thin
/// *record* envelope around each frame:
///
///   offset size  field
///   0      4     magic 'C' 'S' 'X' 'R'
///   4      4     kind (RecordKind, u32 LE)
///   8      8     id   (request-correlation id, u64 LE; echoed in the
///                      response so in-flight requests may complete out
///                      of order)
///   16     4     payload length (u32 LE, <= kMaxRecordPayload)
///   20     ...   payload
///
/// Trust model: the envelope is *untrusted framing*, nothing more. A
/// garbled envelope (bad magic, implausible length, short read) means the
/// stream can no longer be attributed to any request — the connection is
/// torn down and the caller sees a retryable kUnavailable; whatever a
/// retry fetches re-verifies through the digest chain, so transport
/// anomalies can cost time, never trust. Payload integrity is judged only
/// by crypto/wire_format decoding plus Merkle verification, whose failures
/// stay terminal IntegrityErrors.
namespace csxa::net {

enum class RecordKind : uint32_t {
  kBind = 1,          ///< Client -> server: payload is the document id.
  kBindAck = 2,       ///< Server -> client: bind accepted (empty payload).
  kBatchRequest = 3,  ///< Client -> server: one 'QXSC' frame.
  kBatchResponse = 4, ///< Server -> client: one 'RXSC' frame.
  kError = 5,         ///< Server -> client: u32 StatusCode + message text.
};

/// Ceiling on one record's payload. Far above any real frame (a whole
/// 1 GB-spec document streams in ~64 KB fragment runs); its real job is
/// cutting desynchronized-stream reads short before they allocate.
inline constexpr size_t kMaxRecordPayload = size_t{1} << 26;  // 64 MiB

inline constexpr size_t kRecordHeaderBytes = 20;

struct Record {
  RecordKind kind = RecordKind::kError;
  uint64_t id = 0;
  std::vector<uint8_t> payload;
};

/// -- Socket plumbing (POSIX, loopback-friendly) ----------------------
/// Every failure is a retryable Status::Unavailable naming the operation;
/// no raw errno value ever escapes as an error class.

/// Connects to host:port (TCP_NODELAY set — the protocol is latency-bound
/// small frames). Returns the connected fd.
Result<int> ConnectTcp(const std::string& host, uint16_t port);

/// Opens a listening socket on 127.0.0.1:`port` (0 picks an ephemeral
/// port); `*bound_port` receives the actual port.
Result<int> ListenTcp(uint16_t port, uint16_t* bound_port);

/// Blocking accept; Unavailable once the listener is shut down.
Result<int> AcceptConn(int listen_fd);

/// One loopback TCP listener: the socket lifecycle shared by the terminal
/// server and the fault proxy, which supply only the per-connection
/// handler. An accept thread runs `handler(fd)` on its own thread for
/// every accepted connection; when the handler returns, the listener
/// untracks and closes the fd and the thread exits, so a listener holds
/// one thread per live connection.
///
/// Stop() wakes every blocked handler by shutting down each tracked fd:
/// the accepted ones, plus any a handler registers with Track() (the
/// fault proxy's upstream socket). A tracked fd is untracked before it is
/// closed, so Stop() never shuts down a recycled fd number.
class Listener {
 public:
  using Handler = std::function<void(int fd)>;

  Listener() = default;
  ~Listener() { Stop(); }
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts accepting.
  Status Start(uint16_t port, Handler handler) CSXA_EXCLUDES(mu_);

  /// Stops accepting, wakes every handler and returns once all of them
  /// have returned; a second call does nothing.
  void Stop() CSXA_EXCLUDES(mu_);

  /// The bound port (valid after Start()).
  uint16_t port() const CSXA_EXCLUDES(mu_);

  /// Registers an fd a handler opened so Stop() wakes it too; once Stop()
  /// has begun, the fd is shut down at once. The handler must Untrack()
  /// it before closing it.
  void Track(int fd) CSXA_EXCLUDES(mu_);
  void Untrack(int fd) CSXA_EXCLUDES(mu_);

 private:
  void AcceptLoop(int listen_fd, const Handler& handler) CSXA_EXCLUDES(mu_);
  /// Runs one connection's handler, then untracks and closes its fd.
  void Serve(int fd, const Handler& handler) CSXA_EXCLUDES(mu_);
  void UntrackLocked(int fd) CSXA_REQUIRES(mu_);

  mutable Mutex mu_;
  CondVar handlers_done_;
  int listen_fd_ CSXA_GUARDED_BY(mu_) = -1;
  uint16_t port_ CSXA_GUARDED_BY(mu_) = 0;
  bool running_ CSXA_GUARDED_BY(mu_) = false;
  std::vector<int> tracked_ CSXA_GUARDED_BY(mu_);
  size_t live_handlers_ CSXA_GUARDED_BY(mu_) = 0;
  std::thread accept_thread_ CSXA_GUARDED_BY(mu_);
};

/// Wakes any thread blocked on the fd, then releases it. Safe to call
/// with -1 (no-op).
void ShutdownFd(int fd);
void CloseFd(int fd);

/// Arms (ns > 0) or clears (ns == 0) a receive timeout on the fd; a
/// timed-out read surfaces as the usual retryable Unavailable.
void SetRecvTimeoutNs(int fd, uint64_t ns);

/// -- Record I/O ------------------------------------------------------

/// Writes one record (header + payload) fully; Unavailable on any short
/// write or peer reset (SIGPIPE suppressed).
Status WriteRecord(int fd, RecordKind kind, uint64_t id,
                   const uint8_t* payload, size_t len);

/// Writes a raw span fully (the fault proxy forwards — and mangles —
/// pre-serialized records).
Status WriteBytes(int fd, const uint8_t* data, size_t len);

/// Reads exactly one record. Unavailable on EOF, reset, bad magic,
/// unknown kind or implausible length — all conditions after which the
/// stream has no attributable next byte.
Result<Record> ReadRecord(int fd);

/// Serializes a record into `out` (the fault proxy rewrites these).
void AppendRecord(std::vector<uint8_t>* out, RecordKind kind, uint64_t id,
                  const uint8_t* payload, size_t len);

/// -- kError payload --------------------------------------------------

/// Encodes a Status as an error-record payload (u32 code + message).
std::vector<uint8_t> EncodeErrorPayload(const Status& status);

/// Maps an error payload back to a Status. The terminal is untrusted, so
/// only the error classes the serve contract knows survive the trip:
/// kIntegrityError and kInvalidArgument relay as themselves (a stale
/// session must fail with the same class remotely as in-process); every
/// other — or unparseable — claim degrades to retryable kUnavailable.
Status ReadErrorPayload(const std::vector<uint8_t>& payload);

}  // namespace csxa::net

#endif  // CSXA_NET_TRANSPORT_H_

#ifndef CSXA_NET_TERMINAL_SERVER_H_
#define CSXA_NET_TERMINAL_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "crypto/secure_store.h"
#include "net/transport.h"

namespace csxa::net {

/// The untrusted terminal as a real process boundary: a TCP server that
/// exposes registered crypto::BatchTerminals (immutable stores, or a
/// DocumentService's live document entries) over the record-framed batch
/// protocol. A net::Listener owns the socket, the accept thread and one
/// handler thread per live connection; this class is the handler: a
/// connection binds to a document id first (kBind) and then answers
/// kBatchRequest records in arrival order — pipelining depth comes from
/// the client keeping several requests in flight, and from many
/// connections. Each request is decoded once into the connection's
/// request, filled into its response and encoded once; all three buffers
/// are reused for the connection's life.
///
/// The server holds no keys and performs no verification (the terminal
/// cannot: that is the paper's premise). Its error records are claims by
/// an untrusted party; the client-side transport downgrades all but the
/// contracted classes to retryable kUnavailable.
class TerminalServer {
 public:
  struct Options {
    /// 0 binds an ephemeral loopback port (see port() after Start()).
    uint16_t port = 0;
  };

  TerminalServer() = default;
  explicit TerminalServer(Options options) : options_(options) {}
  ~TerminalServer() { Stop(); }
  TerminalServer(const TerminalServer&) = delete;
  TerminalServer& operator=(const TerminalServer&) = delete;

  /// Registers (or replaces) the terminal serving `doc_id`. The shared_ptr
  /// keeps it alive across in-flight requests; a server-layer
  /// DocumentEntry registered here makes version bumps visible mid-serve
  /// exactly as in-process serves see them.
  void RegisterDocument(const std::string& doc_id,
                        std::shared_ptr<const crypto::BatchTerminal> terminal)
      CSXA_EXCLUDES(mu_);

  /// Binds, listens and starts the accept loop.
  Status Start();

  /// Wakes every connection and waits for its handler; idempotent.
  void Stop() { listener_.Stop(); }

  /// The bound port (valid after Start()).
  uint16_t port() const { return listener_.port(); }

  /// Cumulative batch requests answered (any document, any connection).
  uint64_t requests_served() const CSXA_EXCLUDES(mu_);

 private:
  /// Answers one connection's records until the peer leaves or Stop()
  /// shuts the fd down; the listener closes the fd.
  void ServeConnection(int fd) CSXA_EXCLUDES(mu_);
  std::shared_ptr<const crypto::BatchTerminal> Find(
      const std::string& doc_id) const CSXA_EXCLUDES(mu_);

  Options options_;
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<const crypto::BatchTerminal>> docs_
      CSXA_GUARDED_BY(mu_);
  uint64_t requests_served_ CSXA_GUARDED_BY(mu_) = 0;
  Listener listener_;  ///< Last: stopped before the members above go.
};

}  // namespace csxa::net

#endif  // CSXA_NET_TERMINAL_SERVER_H_

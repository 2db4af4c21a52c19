#include "net/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

namespace csxa::net {

namespace {

constexpr uint8_t kMagic[4] = {'C', 'S', 'X', 'R'};

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

/// read() the full span or report why not. Distinguishes clean EOF at a
/// record boundary only by where it happens (callers pass context).
Status ReadFully(int fd, uint8_t* buf, size_t len, const char* what) {
  size_t done = 0;
  while (done < len) {
    ssize_t n = ::read(fd, buf + done, len - done);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable(std::string("connection lost reading ") + what);
  }
  return Status::OK();
}

Status WriteFully(int fd, const uint8_t* buf, size_t len) {
  size_t done = 0;
  while (done < len) {
    // MSG_NOSIGNAL: a peer reset must surface as a Status, not SIGPIPE.
    ssize_t n = ::send(fd, buf + done, len - done, MSG_NOSIGNAL);
    if (n > 0) {
      done += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::Unavailable("connection lost writing record");
  }
  return Status::OK();
}

void SetNoDelay(int fd) {
  int one = 1;
  // Best-effort: losing NODELAY costs latency, never correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

Result<int> ConnectTcp(const std::string& host, uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket() failed for connect");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    CloseFd(fd);
    // csxa-lint: allow(error-taxonomy) a malformed host string is caller
    // misuse, not a transport condition worth retrying.
    return Status::InvalidArgument("terminal host is not an IPv4 literal");
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    CloseFd(fd);
    return Status::Unavailable("terminal connection refused or unreachable");
  }
  SetNoDelay(fd);
  return fd;
}

Result<int> ListenTcp(uint16_t port, uint16_t* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Unavailable("socket() failed for listen");
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    CloseFd(fd);
    return Status::Unavailable("bind() failed (port in use?)");
  }
  if (::listen(fd, 64) < 0) {
    CloseFd(fd);
    return Status::Unavailable("listen() failed");
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
      CloseFd(fd);
      return Status::Unavailable("getsockname() failed");
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<int> AcceptConn(int listen_fd) {
  while (true) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      SetNoDelay(fd);
      return fd;
    }
    if (errno == EINTR) continue;
    return Status::Unavailable("listener shut down");
  }
}

Status Listener::Start(uint16_t port, Handler handler) {
  MutexLock lock(&mu_);
  if (running_) {
    // csxa-lint: allow(error-taxonomy) double Start is caller misuse.
    return Status::InvalidArgument("listener already started");
  }
  uint16_t bound = 0;
  CSXA_ASSIGN_OR_RETURN(const int listen_fd, ListenTcp(port, &bound));
  listen_fd_ = listen_fd;
  port_ = bound;
  running_ = true;
  accept_thread_ = std::thread([this, listen_fd, h = std::move(handler)] {
    AcceptLoop(listen_fd, h);
  });
  return Status::OK();
}

void Listener::Stop() {
  std::thread accept_thread;
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    running_ = false;
    ShutdownFd(listen_fd_);
    for (int fd : tracked_) ShutdownFd(fd);
    accept_thread = std::move(accept_thread_);
  }
  accept_thread.join();
  MutexLock lock(&mu_);
  // Closed only now that no accept() can be pending on its number.
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  while (live_handlers_ != 0) handlers_done_.Wait(&mu_);
}

uint16_t Listener::port() const {
  MutexLock lock(&mu_);
  return port_;
}

void Listener::Track(int fd) {
  MutexLock lock(&mu_);
  tracked_.push_back(fd);
  if (!running_) ShutdownFd(fd);  // Stop() has already swept the set.
}

void Listener::Untrack(int fd) {
  MutexLock lock(&mu_);
  UntrackLocked(fd);
}

void Listener::UntrackLocked(int fd) {
  auto it = std::find(tracked_.begin(), tracked_.end(), fd);
  if (it != tracked_.end()) tracked_.erase(it);
}

void Listener::AcceptLoop(int listen_fd, const Handler& handler) {
  while (true) {
    Result<int> conn = AcceptConn(listen_fd);
    if (!conn.ok()) return;  // Listener shut down.
    const int fd = conn.value();
    MutexLock lock(&mu_);
    if (!running_) {
      CloseFd(fd);
      return;
    }
    tracked_.push_back(fd);
    ++live_handlers_;
    // Detached: the thread ends with its connection, and Stop() waits on
    // live_handlers_ instead of joining.
    std::thread([this, fd, handler] { Serve(fd, handler); }).detach();
  }
}

void Listener::Serve(int fd, const Handler& handler) {
  handler(fd);
  MutexLock lock(&mu_);
  UntrackLocked(fd);
  CloseFd(fd);
  if (--live_handlers_ == 0) handlers_done_.SignalAll();
}

void ShutdownFd(int fd) {
  if (fd >= 0) (void)::shutdown(fd, SHUT_RDWR);
}

void CloseFd(int fd) {
  if (fd >= 0) (void)::close(fd);
}

void SetRecvTimeoutNs(int fd, uint64_t ns) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ns / 1000000000ULL);
  tv.tv_usec = static_cast<suseconds_t>((ns % 1000000000ULL) / 1000ULL);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void AppendRecord(std::vector<uint8_t>* out, RecordKind kind, uint64_t id,
                  const uint8_t* payload, size_t len) {
  out->reserve(out->size() + kRecordHeaderBytes + len);
  out->insert(out->end(), kMagic, kMagic + 4);
  PutU32(out, static_cast<uint32_t>(kind));
  PutU64(out, id);
  PutU32(out, static_cast<uint32_t>(len));
  if (len != 0) out->insert(out->end(), payload, payload + len);
}

Status WriteBytes(int fd, const uint8_t* data, size_t len) {
  return WriteFully(fd, data, len);
}

Status WriteRecord(int fd, RecordKind kind, uint64_t id,
                   const uint8_t* payload, size_t len) {
  if (len > kMaxRecordPayload) {
    // csxa-lint: allow(error-taxonomy) oversized frames are produced by
    // our own encoder, so this is caller misuse, not a wire condition.
    return Status::InvalidArgument("record payload exceeds transport cap");
  }
  std::vector<uint8_t> buf;
  AppendRecord(&buf, kind, id, payload, len);
  return WriteFully(fd, buf.data(), buf.size());
}

Result<Record> ReadRecord(int fd) {
  uint8_t header[kRecordHeaderBytes];
  CSXA_RETURN_NOT_OK(ReadFully(fd, header, sizeof(header), "record header"));
  if (std::memcmp(header, kMagic, 4) != 0) {
    return Status::Unavailable(
        "transport stream desynchronized (bad record magic)");
  }
  const uint32_t kind = GetU32(header + 4);
  if (kind < static_cast<uint32_t>(RecordKind::kBind) ||
      kind > static_cast<uint32_t>(RecordKind::kError)) {
    return Status::Unavailable(
        "transport stream desynchronized (unknown record kind)");
  }
  const uint32_t len = GetU32(header + 16);
  if (len > kMaxRecordPayload) {
    return Status::Unavailable(
        "transport stream desynchronized (implausible record length)");
  }
  Record rec;
  rec.kind = static_cast<RecordKind>(kind);
  rec.id = GetU64(header + 8);
  rec.payload.resize(len);
  if (len != 0) {
    CSXA_RETURN_NOT_OK(ReadFully(fd, rec.payload.data(), len,
                                 "record payload"));
  }
  return rec;
}

std::vector<uint8_t> EncodeErrorPayload(const Status& status) {
  std::vector<uint8_t> out;
  PutU32(&out, static_cast<uint32_t>(status.code()));
  const std::string& msg = status.message();
  out.insert(out.end(), msg.begin(), msg.end());
  return out;
}

Status ReadErrorPayload(const std::vector<uint8_t>& payload) {
  if (payload.size() < 4) {
    return Status::Unavailable("terminal sent an unparseable error record");
  }
  const uint32_t code = GetU32(payload.data());
  std::string msg(payload.begin() + 4, payload.end());
  if (code == static_cast<uint32_t>(StatusCode::kIntegrityError)) {
    return Status::IntegrityError(std::move(msg));
  }
  if (code == static_cast<uint32_t>(StatusCode::kInvalidArgument)) {
    // csxa-lint: allow(error-taxonomy) relaying the server's own
    // caller-misuse verdict (misaligned runs etc.) without changing class.
    return Status::InvalidArgument(std::move(msg));
  }
  // Anything else the (untrusted) terminal claims — including kOk — is
  // treated as a transient server-side failure: retry, then re-verify.
  return Status::Unavailable("terminal reported a transient error: " + msg);
}

}  // namespace csxa::net

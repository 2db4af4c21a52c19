#include "net/fault_proxy.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "common/splitmix64.h"

namespace csxa::net {

namespace {

void SleepNs(uint64_t ns) {
  if (ns != 0) std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

}  // namespace

std::vector<FaultProxy::FaultEvent> FaultProxy::SeededProgram(
    uint64_t seed, uint64_t count, uint64_t horizon) {
  uint64_t state = seed ^ 0xC5A1C5A1C5A1C5A1ULL;
  std::vector<FaultEvent> program;
  program.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    FaultEvent ev;
    ev.fault = static_cast<Fault>(
        1 + SplitMix64(&state) % 6);  // the six injectable faults
    ev.response_index = horizon == 0 ? i : SplitMix64(&state) % horizon;
    switch (ev.fault) {
      case Fault::kDropAfterBytes:
        ev.arg = 1 + SplitMix64(&state) % 48;
        break;
      case Fault::kCorruptByte:
        ev.arg = SplitMix64(&state) % 64;
        break;
      case Fault::kStall:
        // Long enough to trip any sane per-request deadline, short
        // enough that a retried smoke run still finishes.
        ev.arg = 300'000'000ULL + SplitMix64(&state) % 300'000'000ULL;
        break;
      default:
        ev.arg = 0;
        break;
    }
    program.push_back(ev);
  }
  std::sort(program.begin(), program.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.response_index < b.response_index;
            });
  return program;
}

Status FaultProxy::Start() {
  MutexLock lock(&mu_);
  if (running_) {
    // csxa-lint: allow(error-taxonomy) double Start is caller misuse.
    return Status::InvalidArgument("fault proxy already started");
  }
  uint16_t bound = 0;
  CSXA_ASSIGN_OR_RETURN(listen_fd_, ListenTcp(options_.listen_port, &bound));
  port_ = bound;
  running_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void FaultProxy::Stop() {
  std::thread accept_thread;
  std::vector<std::thread> workers;
  {
    MutexLock lock(&mu_);
    if (!running_ && !accept_thread_.joinable()) return;
    running_ = false;
    ShutdownFd(listen_fd_);
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    for (int fd : conn_fds_) ShutdownFd(fd);
    accept_thread = std::move(accept_thread_);
    workers = std::move(workers_);
  }
  if (accept_thread.joinable()) accept_thread.join();
  for (std::thread& t : workers) {
    if (t.joinable()) t.join();
  }
}

uint16_t FaultProxy::port() const {
  MutexLock lock(&mu_);
  return port_;
}

uint64_t FaultProxy::responses_seen() const {
  MutexLock lock(&mu_);
  return response_counter_;
}

uint64_t FaultProxy::faults_fired() const {
  MutexLock lock(&mu_);
  return faults_fired_;
}

FaultProxy::FaultEvent FaultProxy::NextResponseFault() {
  MutexLock lock(&mu_);
  const uint64_t index = response_counter_++;
  for (const FaultEvent& ev : options_.program) {
    if (ev.response_index == index && ev.fault != Fault::kNone) {
      ++faults_fired_;
      return ev;
    }
  }
  return FaultEvent{Fault::kNone, index, 0};
}

void FaultProxy::Deregister(int fd) {
  MutexLock lock(&mu_);
  auto it = std::find(conn_fds_.begin(), conn_fds_.end(), fd);
  if (it != conn_fds_.end()) conn_fds_.erase(it);
}

void FaultProxy::PacingSleep(size_t bytes) const {
  SleepNs(options_.rtt_ns / 2);
  if (options_.bandwidth_bytes_per_s != 0) {
    SleepNs(static_cast<uint64_t>(bytes) * 1'000'000'000ULL /
            options_.bandwidth_bytes_per_s);
  }
}

void FaultProxy::AcceptLoop() {
  while (true) {
    int listen_fd;
    {
      MutexLock lock(&mu_);
      if (!running_) return;
      listen_fd = listen_fd_;
    }
    Result<int> conn = AcceptConn(listen_fd);
    if (!conn.ok()) return;
    const int client_fd = conn.value();
    Result<int> upstream =
        ConnectTcp(options_.upstream_host, options_.upstream_port);
    if (!upstream.ok()) {
      // Upstream down: the client sees its connection reset — exactly
      // the refused/disconnect class it must retry through.
      CloseFd(client_fd);
      continue;
    }
    const int server_fd = upstream.value();
    MutexLock lock(&mu_);
    if (!running_) {
      CloseFd(client_fd);
      CloseFd(server_fd);
      return;
    }
    conn_fds_.push_back(client_fd);
    conn_fds_.push_back(server_fd);
    workers_.emplace_back([this, client_fd, server_fd] {
      // The reverse pump runs in its own thread; this thread owns the
      // response direction (where the fault program aims).
      std::thread forward([this, client_fd, server_fd] {
        PumpClientToServer(client_fd, server_fd);
        ShutdownFd(client_fd);
        ShutdownFd(server_fd);
      });
      PumpServerToClient(server_fd, client_fd);
      ShutdownFd(client_fd);
      ShutdownFd(server_fd);
      forward.join();
      Deregister(client_fd);
      Deregister(server_fd);
      CloseFd(client_fd);
      CloseFd(server_fd);
    });
  }
}

void FaultProxy::PumpClientToServer(int client_fd, int server_fd) {
  std::vector<uint8_t> buf;
  while (true) {
    Result<Record> rec = ReadRecord(client_fd);
    if (!rec.ok()) return;
    buf.clear();
    AppendRecord(&buf, rec.value().kind, rec.value().id,
                 rec.value().payload.data(), rec.value().payload.size());
    PacingSleep(buf.size());
    if (!WriteBytes(server_fd, buf.data(), buf.size()).ok()) return;
  }
}

void FaultProxy::PumpServerToClient(int server_fd, int client_fd) {
  std::vector<uint8_t> buf;
  while (true) {
    Result<Record> rec = ReadRecord(server_fd);
    if (!rec.ok()) return;
    const Record& record = rec.value();
    buf.clear();
    AppendRecord(&buf, record.kind, record.id, record.payload.data(),
                 record.payload.size());
    const FaultEvent ev = NextResponseFault();
    PacingSleep(buf.size());
    switch (ev.fault) {
      case Fault::kNone:
        if (!WriteBytes(client_fd, buf.data(), buf.size()).ok()) return;
        break;
      case Fault::kDropAfterBytes: {
        const size_t keep = std::min<size_t>(ev.arg, buf.size());
        if (keep != 0 && !WriteBytes(client_fd, buf.data(), keep).ok()) {
          return;
        }
        // Go silent: swallow further responses (keeping the server
        // unblocked) until either side tears the connection down. The
        // client's deadline turns the silence into a typed timeout.
        while (ReadRecord(server_fd).ok()) {
        }
        return;
      }
      case Fault::kTruncateFrame: {
        const size_t cut = record.payload.size() / 2;
        std::vector<uint8_t> mangled;
        AppendRecord(&mangled, record.kind, record.id, record.payload.data(),
                     cut);
        if (!WriteBytes(client_fd, mangled.data(), mangled.size()).ok()) {
          return;
        }
        break;
      }
      case Fault::kCorruptByte: {
        if (record.payload.empty()) {
          // Nothing beneath the envelope: corrupt the length field
          // instead (a desynchronized stream, retryable at the client).
          buf[kRecordHeaderBytes - 1] ^= 0x5A;
        } else {
          buf[kRecordHeaderBytes + ev.arg % record.payload.size()] ^= 0x5A;
        }
        if (!WriteBytes(client_fd, buf.data(), buf.size()).ok()) return;
        break;
      }
      case Fault::kStall: {
        SleepNs(ev.arg == 0 ? 400'000'000ULL : ev.arg);
        if (!WriteBytes(client_fd, buf.data(), buf.size()).ok()) return;
        break;
      }
      case Fault::kCloseMidResponse: {
        const size_t half = std::max<size_t>(1, buf.size() / 2);
        (void)WriteBytes(client_fd, buf.data(), half);
        return;  // Pump exit shuts down both directions.
      }
      case Fault::kDuplicateResponse: {
        if (!WriteBytes(client_fd, buf.data(), buf.size()).ok()) return;
        if (!WriteBytes(client_fd, buf.data(), buf.size()).ok()) return;
        break;
      }
    }
  }
}

}  // namespace csxa::net

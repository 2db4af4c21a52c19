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
  return listener_.Start(options_.listen_port,
                         [this](int fd) { ServeConnection(fd); });
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

void FaultProxy::PacingSleep(size_t bytes) const {
  SleepNs(options_.rtt_ns / 2);
  if (options_.bandwidth_bytes_per_s != 0) {
    SleepNs(static_cast<uint64_t>(bytes) * 1'000'000'000ULL /
            options_.bandwidth_bytes_per_s);
  }
}

void FaultProxy::ServeConnection(int client_fd) {
  Result<int> upstream =
      ConnectTcp(options_.upstream_host, options_.upstream_port);
  // Upstream down: the client sees its connection reset — exactly the
  // refused/disconnect class it must retry through.
  if (!upstream.ok()) return;
  const int server_fd = upstream.value();
  listener_.Track(server_fd);
  // The request direction runs in its own thread; this thread owns the
  // response direction (where the fault program aims).
  std::thread forward([this, client_fd, server_fd] {
    Pump(client_fd, server_fd, /*responses=*/false);
    ShutdownFd(client_fd);
    ShutdownFd(server_fd);
  });
  Pump(server_fd, client_fd, /*responses=*/true);
  ShutdownFd(client_fd);
  ShutdownFd(server_fd);
  forward.join();
  listener_.Untrack(server_fd);
  CloseFd(server_fd);
}

void FaultProxy::Pump(int from_fd, int to_fd, bool responses) {
  std::vector<uint8_t> buf;
  while (true) {
    Result<Record> rec = ReadRecord(from_fd);
    if (!rec.ok()) return;
    const Record& record = rec.value();
    buf.clear();
    AppendRecord(&buf, record.kind, record.id, record.payload.data(),
                 record.payload.size());
    const FaultEvent ev = responses ? NextResponseFault() : FaultEvent{};
    PacingSleep(buf.size());
    switch (ev.fault) {
      case Fault::kNone:
        if (!WriteBytes(to_fd, buf.data(), buf.size()).ok()) return;
        break;
      case Fault::kDropAfterBytes: {
        const size_t keep = std::min<size_t>(ev.arg, buf.size());
        if (keep != 0 && !WriteBytes(to_fd, buf.data(), keep).ok()) {
          return;
        }
        // Go silent: swallow further responses (keeping the server
        // unblocked) until either side tears the connection down. The
        // client's deadline turns the silence into a typed timeout.
        while (ReadRecord(from_fd).ok()) {
        }
        return;
      }
      case Fault::kTruncateFrame: {
        const size_t cut = record.payload.size() / 2;
        std::vector<uint8_t> mangled;
        AppendRecord(&mangled, record.kind, record.id, record.payload.data(),
                     cut);
        if (!WriteBytes(to_fd, mangled.data(), mangled.size()).ok()) {
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
        if (!WriteBytes(to_fd, buf.data(), buf.size()).ok()) return;
        break;
      }
      case Fault::kStall: {
        SleepNs(ev.arg == 0 ? 400'000'000ULL : ev.arg);
        if (!WriteBytes(to_fd, buf.data(), buf.size()).ok()) return;
        break;
      }
      case Fault::kCloseMidResponse: {
        const size_t half = std::max<size_t>(1, buf.size() / 2);
        (void)WriteBytes(to_fd, buf.data(), half);
        return;  // Pump exit shuts down both directions.
      }
      case Fault::kDuplicateResponse: {
        if (!WriteBytes(to_fd, buf.data(), buf.size()).ok()) return;
        if (!WriteBytes(to_fd, buf.data(), buf.size()).ok()) return;
        break;
      }
    }
  }
}

}  // namespace csxa::net

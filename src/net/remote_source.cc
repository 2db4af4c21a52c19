#include "net/remote_source.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/splitmix64.h"
#include "crypto/wire_format.h"

namespace csxa::net {

namespace {

bool Retryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}

}  // namespace

void LinkPriceEstimate::Add(uint64_t ns, uint64_t bytes) {
  Fastest& slot = fastest_[std::bit_width(bytes)];
  if (ns > slot.ns || (ns == slot.ns && bytes >= slot.bytes)) return;
  slot = {ns, bytes};

  // Only the fastest round trips shape the price, so it is recomputed
  // only when one of them improves.
  const Fastest* anchor = &slot;
  uint64_t min_bytes = bytes, max_bytes = bytes;
  for (const Fastest& c : fastest_) {
    if (c.ns == UINT64_MAX) continue;
    if (c.ns < anchor->ns || (c.ns == anchor->ns && c.bytes < anchor->bytes)) {
      anchor = &c;
    }
    min_bytes = std::min(min_bytes, c.bytes);
    max_bytes = std::max(max_bytes, c.bytes);
  }
  if (max_bytes < 2 * min_bytes) {
    price_bytes_ = 0;
    return;
  }
  const Fastest* widest = nullptr;
  for (const Fastest& c : fastest_) {
    if (c.ns == UINT64_MAX || c.bytes < 2 * anchor->bytes) continue;
    if (widest == nullptr || c.bytes > widest->bytes) widest = &c;
  }
  const uint64_t noise_ns = std::max<uint64_t>(1, anchor->ns / 4);
  // The fastest round trip is among the largest, or the widest class
  // costs no more time than the noise.
  if (widest == nullptr || widest->ns - anchor->ns <= noise_ns) {
    price_bytes_ = UINT64_MAX;
    return;
  }
  const double rate =  // Bytes per ns.
      static_cast<double>(widest->bytes - anchor->bytes) /
      static_cast<double>(widest->ns - anchor->ns);
  const double latency_ns = std::max(
      0.0, static_cast<double>(anchor->ns) -
               static_cast<double>(anchor->bytes) / rate);
  const double price = std::floor(latency_ns * rate);
  price_bytes_ = price >= 0x1p64 ? UINT64_MAX : static_cast<uint64_t>(price);
}

RemoteBatchSource::~RemoteBatchSource() {
  std::vector<std::thread> parked;
  {
    MutexLock lock(&mu_);
    if (fd_ >= 0) DropConnectionLocked("terminal link shutting down");
    parked.swap(parked_);
  }
  for (std::thread& t : parked) {
    if (t.joinable()) t.join();
  }
}

crypto::BatchSource::TransportStats RemoteBatchSource::transport_stats()
    const {
  MutexLock lock(&mu_);
  return {retries_, reconnects_, price_.price_bytes()};
}

void RemoteBatchSource::FailWaitersLocked(const char* why) const {
  for (auto& [id, waiter] : waiters_) {
    (void)id;
    waiter->error = Status::Unavailable(why);
    waiter->done = true;
  }
  waiters_.clear();
  cv_.SignalAll();
}

void RemoteBatchSource::DropConnectionLocked(const char* why) const {
  ShutdownFd(fd_);  // Wakes the reader; the reader closes the fd.
  fd_ = -1;
  ++epoch_;
  if (reader_.joinable()) parked_.push_back(std::move(reader_));
  FailWaitersLocked(why);
}

Result<int> RemoteBatchSource::DialAndBind() const {
  CSXA_ASSIGN_OR_RETURN(int fd, ConnectTcp(options_.host, options_.port));
  // The bind round trip runs before the reader thread exists, so it must
  // bound its own blocking read: a link that stalls inside the handshake
  // is as dead as one that refuses the connection.
  if (options_.deadline_ns != 0) SetRecvTimeoutNs(fd, options_.deadline_ns);
  Status st =
      WriteRecord(fd, RecordKind::kBind, /*id=*/0,
                  common::AsBytes(options_.doc_id), options_.doc_id.size());
  if (!st.ok()) {
    CloseFd(fd);
    return st;
  }
  Result<Record> ack = ReadRecord(fd);
  if (!ack.ok()) {
    CloseFd(fd);
    return ack.status();
  }
  if (ack.value().kind == RecordKind::kError) {
    Status relayed = ReadErrorPayload(ack.value().payload);
    CloseFd(fd);
    return relayed;
  }
  if (ack.value().kind != RecordKind::kBindAck) {
    CloseFd(fd);
    return Status::Unavailable("terminal answered bind with a non-ack record");
  }
  SetRecvTimeoutNs(fd, 0);  // Steady-state deadlines are per-waiter.
  return fd;
}

Status RemoteBatchSource::EnsureConnected() const {
  std::vector<std::thread> parked;
  {
    MutexLock lock(&mu_);
    if (fd_ >= 0) return Status::OK();
    parked.swap(parked_);
  }
  for (std::thread& t : parked) {
    if (t.joinable()) t.join();
  }
  CSXA_ASSIGN_OR_RETURN(int fd, DialAndBind());
  MutexLock lock(&mu_);
  if (fd_ >= 0) {
    // Another caller won the dial race; use its connection.
    CloseFd(fd);
    return Status::OK();
  }
  fd_ = fd;
  const uint64_t my_epoch = epoch_;
  if (ever_connected_) ++reconnects_;
  ever_connected_ = true;
  reader_ = std::thread([this, fd, my_epoch] { ReaderLoop(fd, my_epoch); });
  return Status::OK();
}

void RemoteBatchSource::ReaderLoop(int fd, uint64_t my_epoch) const {
  while (true) {
    Result<Record> rec = ReadRecord(fd);
    MutexLock lock(&mu_);
    if (epoch_ != my_epoch) break;  // Torn down under us; already parked.
    if (!rec.ok()) {
      // The connection died mid-stream (EOF, reset, desync): park
      // ourselves and fail the in-flight requests retryably — their
      // retries re-verify everything through the digest chain.
      fd_ = -1;
      ++epoch_;
      if (reader_.joinable()) parked_.push_back(std::move(reader_));
      FailWaitersLocked("terminal connection lost mid-stream");
      break;
    }
    Record& record = rec.value();
    auto it = waiters_.find(record.id);
    if (it == waiters_.end()) continue;  // Duplicate or abandoned: dropped.
    Waiter* waiter = it->second;
    waiters_.erase(it);
    switch (record.kind) {
      case RecordKind::kBatchResponse:
        waiter->payload = std::move(record.payload);
        break;
      case RecordKind::kError:
        waiter->error = ReadErrorPayload(record.payload);
        break;
      default:
        waiter->error =
            Status::Unavailable("terminal answered with a mislabeled record");
        break;
    }
    waiter->done = true;
    cv_.SignalAll();
  }
  CloseFd(fd);
}

void RemoteBatchSource::BackoffPause(uint32_t attempt) const {
  uint64_t base = options_.backoff_initial_ns
                  << std::min(attempt - 1, uint32_t{20});
  base = std::min(std::max<uint64_t>(base, 2), options_.backoff_max_ns);
  uint64_t draw;
  {
    MutexLock lock(&mu_);
    if (jitter_state_ == 0) jitter_state_ = options_.jitter_seed | 1;
    draw = SplitMix64(&jitter_state_);
  }
  // Jitter in [base/2, base): decorrelates clients without ever zeroing
  // the pause.
  const uint64_t ns = base / 2 + draw % (base - base / 2);
  std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

Result<crypto::BatchResponse> RemoteBatchSource::ReadBatch(
    const crypto::BatchRequest& request) const {
  std::vector<uint8_t> frame;
  crypto::EncodeBatchRequest(request, &frame);
  Status last = Status::Unavailable("terminal was never reachable");
  for (uint32_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) {
      {
        MutexLock lock(&mu_);
        ++retries_;
      }
      BackoffPause(attempt);
    }
    Status conn = EnsureConnected();
    if (!conn.ok()) {
      if (!Retryable(conn)) return conn;  // e.g. unknown document id
      last = conn;
      continue;
    }
    Waiter waiter;
    {
      MutexLock lock(&mu_);
      if (fd_ < 0) {
        // A concurrent request tore the connection down between our
        // EnsureConnected and here; dial again next attempt.
        last = Status::Unavailable("terminal connection dropped before send");
        continue;
      }
      const uint64_t id = next_id_++;
      waiters_[id] = &waiter;
      const uint64_t sent_at = NowNs();
      Status sent = WriteRecord(fd_, RecordKind::kBatchRequest, id,
                                frame.data(), frame.size());
      if (!sent.ok()) {
        waiters_.erase(id);
        DropConnectionLocked("terminal connection lost while sending");
        last = sent;
        continue;
      }
      const uint64_t deadline =
          options_.deadline_ns == 0 ? 0 : NowNs() + options_.deadline_ns;
      while (!waiter.done) {
        if (deadline == 0) {
          cv_.Wait(&mu_);
          continue;
        }
        const uint64_t now = NowNs();
        if (now >= deadline) break;
        (void)cv_.WaitFor(&mu_, deadline - now);
      }
      if (!waiter.done) {
        waiters_.erase(id);
        // A link that swallowed a request is not trusted with its retry.
        DropConnectionLocked("terminal stalled past the request deadline");
        last = Status::DeadlineExceeded(
            "terminal did not answer within the per-request deadline");
        continue;
      }
      if (!waiter.error.ok()) {
        if (!Retryable(waiter.error)) return waiter.error;
        last = waiter.error;
        continue;
      }
      price_.Add(NowNs() - sent_at, 2 * kRecordHeaderBytes + frame.size() +
                                        waiter.payload.size());
    }
    // Decode outside the lock; a frame that fails here is tampering or
    // corruption — terminal either way, never retried.
    return crypto::DecodeBatchResponse(waiter.payload.data(),
                                       waiter.payload.size());
  }
  return last;
}

}  // namespace csxa::net

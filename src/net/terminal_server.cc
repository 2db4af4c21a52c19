#include "net/terminal_server.h"

#include <utility>

#include "crypto/wire_format.h"

namespace csxa::net {

void TerminalServer::RegisterDocument(
    const std::string& doc_id,
    std::shared_ptr<const crypto::BatchTerminal> terminal) {
  MutexLock lock(&mu_);
  docs_[doc_id] = std::move(terminal);
}

std::shared_ptr<const crypto::BatchTerminal> TerminalServer::Find(
    const std::string& doc_id) const {
  MutexLock lock(&mu_);
  auto it = docs_.find(doc_id);
  return it == docs_.end() ? nullptr : it->second;
}

Status TerminalServer::Start() {
  return listener_.Start(options_.port,
                         [this](int fd) { ServeConnection(fd); });
}

uint64_t TerminalServer::requests_served() const {
  MutexLock lock(&mu_);
  return requests_served_;
}

void TerminalServer::ServeConnection(int fd) {
  std::shared_ptr<const crypto::BatchTerminal> bound;
  crypto::BatchRequest request;
  crypto::BatchResponse response;
  std::vector<uint8_t> frame;
  while (true) {
    Result<Record> rec = ReadRecord(fd);
    if (!rec.ok()) break;  // EOF/reset/desync: the peer retries elsewhere.
    Record& record = rec.value();
    Status reply_error = Status::OK();
    frame.clear();
    switch (record.kind) {
      case RecordKind::kBind: {
        std::string doc_id(record.payload.begin(), record.payload.end());
        bound = Find(doc_id);
        if (bound == nullptr) {
          // csxa-lint: allow(error-taxonomy) unknown id is client misuse.
          reply_error = Status::InvalidArgument(
              "terminal holds no document under this id");
        }
        break;
      }
      case RecordKind::kBatchRequest: {
        if (bound == nullptr) {
          // csxa-lint: allow(error-taxonomy) request before bind.
          reply_error = Status::InvalidArgument(
              "batch request on a connection not bound to a document");
          break;
        }
        reply_error = crypto::DecodeBatchRequest(
            record.payload.data(), record.payload.size(), &request);
        if (reply_error.ok()) {
          reply_error = bound->FillBatch(request, &response);
        }
        if (!reply_error.ok()) break;
        crypto::EncodeBatchResponse(response, &frame);
        MutexLock lock(&mu_);
        ++requests_served_;
        break;
      }
      default:
        // A client must not send server-role records; the stream is
        // suspect, drop the connection.
        reply_error = Status::Unavailable(
            "unexpected record kind from client");
        break;
    }
    Status write_status;
    if (!reply_error.ok()) {
      std::vector<uint8_t> payload = EncodeErrorPayload(reply_error);
      write_status = WriteRecord(fd, RecordKind::kError, record.id,
                                 payload.data(), payload.size());
    } else if (record.kind == RecordKind::kBind) {
      write_status =
          WriteRecord(fd, RecordKind::kBindAck, record.id, nullptr, 0);
    } else {
      write_status = WriteRecord(fd, RecordKind::kBatchResponse, record.id,
                                 frame.data(), frame.size());
    }
    if (!write_status.ok()) break;
  }
}

}  // namespace csxa::net

#include "crypto/wire_format.h"

#include <cstring>

// Error-taxonomy contract (enforced by tools/csxa_lint.py): every failure
// in this file is IntegrityError. The decoder faces raw terminal bytes —
// a frame it cannot parse *is* the attack surface, so there is no
// "caller error" class here by definition.

namespace csxa::crypto {

namespace {

constexpr uint32_t kRequestMagic = 0x43535851;   // "QXSC" on the wire.
constexpr uint32_t kResponseMagic = 0x43535852;  // "RXSC" on the wire.

/// Little-endian writer over bytes the encoder sized up front: one resize
/// per frame instead of a capacity check per byte.
struct Writer {
  uint8_t* p;

  void U8(uint8_t v) { *p++ = v; }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) *p++ = static_cast<uint8_t>(v >> (8 * i));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) *p++ = static_cast<uint8_t>(v >> (8 * i));
  }
  void Bytes(const uint8_t* src, size_t n) {
    if (n != 0) std::memcpy(p, src, n);
    p += n;
  }
};

/// Grows `out` by `n` bytes and returns a writer at the old end.
Writer Append(std::vector<uint8_t>* out, size_t n) {
  const size_t at = out->size();
  out->resize(at + n);
  return Writer{out->data() + at};
}

/// Bounds-checked cursor over an untrusted frame: every accessor verifies
/// the remaining byte count first and latches an error instead of reading.
/// Callers check `ok` once per structural level; reads after a failure are
/// no-ops returning zeroes, so a single check suffices per frame.
struct Reader {
  const uint8_t* p;
  size_t n;
  const char* error = nullptr;

  bool Need(size_t k) {
    if (error != nullptr) return false;
    if (n < k) {
      error = "frame truncated";
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    uint8_t v = p[0];
    p += 1;
    n -= 1;
    return v;
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    p += 4;
    n -= 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    p += 8;
    n -= 8;
    return v;
  }
  /// A count of records, each at least `record_size` bytes: reject any
  /// claim the remaining bytes cannot possibly hold, so reserving
  /// `count` records can never over-allocate on a length-field lie.
  uint32_t Count(size_t record_size) {
    uint32_t c = U32();
    if (error == nullptr && uint64_t{c} * record_size > n) {
      error = "count field exceeds frame size";
      return 0;
    }
    return c;
  }
  /// The next `k` bytes, consumed; null (and latched) when absent.
  const uint8_t* Take(size_t k) {
    if (!Need(k)) return nullptr;
    const uint8_t* at = p;
    p += k;
    n -= k;
    return at;
  }
  /// Copies `k` bytes into `dst` (resized by the caller *after* Need).
  /// `dst` may be null when `k` is zero — an empty vector's data() is —
  /// so the copy is skipped rather than handing memcpy a null pointer.
  bool Bytes(uint8_t* dst, size_t k) {
    if (!Need(k)) return false;
    if (k != 0) std::memcpy(dst, p, k);
    p += k;
    n -= k;
    return true;
  }
};

Status WireError(const Reader& r, const char* frame) {
  return Status::IntegrityError(std::string("wire ") + frame + ": " +
                                (r.error != nullptr ? r.error : "malformed"));
}

}  // namespace

void EncodeBatchRequest(const BatchRequest& request,
                        std::vector<uint8_t>* out) {
  Writer w = Append(out, 16 + 16 * request.runs.size() +
                             8 * request.bare_chunks.size() +
                             17 * request.hints.size());
  w.U32(kRequestMagic);
  w.U32(static_cast<uint32_t>(request.runs.size()));
  for (const BatchRequest::Run& run : request.runs) {
    w.U64(run.begin);
    w.U64(run.end);
  }
  w.U32(static_cast<uint32_t>(request.bare_chunks.size()));
  for (uint64_t chunk : request.bare_chunks) w.U64(chunk);
  w.U32(static_cast<uint32_t>(request.hints.size()));
  for (const BatchRequest::ChunkHint& hint : request.hints) {
    w.U64(hint.chunk);
    w.U64(hint.known_nodes);
    w.U8(hint.root_known ? 1 : 0);
  }
}

Result<BatchRequest> DecodeBatchRequest(const uint8_t* data, size_t size) {
  BatchRequest request;
  CSXA_RETURN_NOT_OK(DecodeBatchRequest(data, size, &request));
  return request;
}

Status DecodeBatchRequest(const uint8_t* data, size_t size,
                          BatchRequest* out) {
  Reader r{data, size};
  BatchRequest& request = *out;
  request.runs.clear();
  request.bare_chunks.clear();
  request.hints.clear();
  if (r.U32() != kRequestMagic && r.error == nullptr) r.error = "bad magic";
  // Counts are checked against the bytes present before anything is
  // sized from them.
  request.runs.resize(r.Count(16));
  for (BatchRequest::Run& run : request.runs) {
    run.begin = r.U64();
    run.end = r.U64();
  }
  request.bare_chunks.resize(r.Count(8));
  for (uint64_t& chunk : request.bare_chunks) chunk = r.U64();
  request.hints.resize(r.Count(17));
  for (BatchRequest::ChunkHint& hint : request.hints) {
    hint.chunk = r.U64();
    hint.known_nodes = r.U64();
    uint8_t flag = r.U8();
    if (flag > 1 && r.error == nullptr) r.error = "root_known flag not boolean";
    hint.root_known = flag == 1;
  }
  if (r.error == nullptr && r.n != 0) r.error = "trailing bytes after frame";
  if (r.error != nullptr) {
    request.runs.clear();
    request.bare_chunks.clear();
    request.hints.clear();
    return WireError(r, "request");
  }
  return Status::OK();
}

void EncodeBatchResponse(const BatchResponse& response,
                         std::vector<uint8_t>* out) {
  size_t bytes = 12;
  for (const BatchResponse::Segment& seg : response.segments) {
    bytes += 16 + seg.ciphertext.size();
  }
  for (const BatchResponse::ChunkMaterial& mat : response.chunks) {
    bytes += 25 + 32 * mat.proof.size() + mat.encrypted_digest.size();
  }
  Writer w = Append(out, bytes);
  w.U32(kResponseMagic);
  w.U32(static_cast<uint32_t>(response.segments.size()));
  for (const BatchResponse::Segment& seg : response.segments) {
    w.U64(seg.begin);
    // csxa-lint: allow(taint-release) framing copies tainted bytes verbatim
    const std::vector<uint8_t>& ct = seg.ciphertext.ReleaseUnverified();
    w.U64(ct.size());
    w.Bytes(ct.data(), ct.size());
  }
  w.U32(static_cast<uint32_t>(response.chunks.size()));
  for (const BatchResponse::ChunkMaterial& mat : response.chunks) {
    w.U64(mat.chunk_index);
    w.U32(mat.first_fragment);
    w.U32(mat.last_fragment);
    w.U8(0);  // has_prefix_state: reads are fragment-aligned.
    w.U32(static_cast<uint32_t>(mat.proof.size()));
    for (const ProofNode& node : mat.proof) {
      w.U32(static_cast<uint32_t>(node.level));
      w.U64(node.index);
      w.Bytes(node.hash.data(), node.hash.size());
    }
    w.U32(static_cast<uint32_t>(mat.encrypted_digest.size()));
    w.Bytes(mat.encrypted_digest.data(), mat.encrypted_digest.size());
  }
}

Result<BatchResponse> DecodeBatchResponse(const uint8_t* data, size_t size) {
  BatchResponse response;
  CSXA_RETURN_NOT_OK(DecodeBatchResponse(data, size, &response));
  return response;
}

Status DecodeBatchResponse(const uint8_t* data, size_t size,
                           BatchResponse* out) {
  Reader r{data, size};
  BatchResponse& response = *out;
  if (r.U32() != kResponseMagic && r.error == nullptr) r.error = "bad magic";
  response.segments.resize(r.Count(16));
  for (BatchResponse::Segment& seg : response.segments) {
    seg.begin = r.U64();
    const uint64_t len = r.U64();
    const uint8_t* bytes = r.Take(len);
    if (bytes == nullptr) break;
    seg.ciphertext.Assign(bytes, len);
  }
  response.chunks.resize(r.Count(25));
  for (BatchResponse::ChunkMaterial& mat : response.chunks) {
    mat.chunk_index = r.U64();
    mat.first_fragment = r.U32();
    mat.last_fragment = r.U32();
    if (r.U8() != 0 && r.error == nullptr) {
      // Fragment alignment makes prefix states unnecessary; a terminal
      // shipping one is speaking the wrong protocol.
      r.error = "prefix state on batched wire";
    }
    mat.proof.resize(r.Count(32));
    for (ProofNode& node : mat.proof) {
      node.level = static_cast<int>(r.U32());
      node.index = r.U64();
      r.Bytes(node.hash.data(), node.hash.size());
    }
    const uint64_t digest_len = r.U32();
    const uint8_t* digest = r.Take(digest_len);
    if (digest == nullptr) break;
    mat.encrypted_digest.assign(digest, digest + digest_len);
  }
  if (r.error == nullptr && r.n != 0) r.error = "trailing bytes after frame";
  if (r.error != nullptr) {
    response.segments.clear();
    response.chunks.clear();
    return WireError(r, "response");
  }
  return Status::OK();
}

}  // namespace csxa::crypto

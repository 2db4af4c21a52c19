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

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutBytes(std::vector<uint8_t>* out, const uint8_t* p, size_t n) {
  if (n != 0) out->insert(out->end(), p, p + n);
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
  PutU32(out, kRequestMagic);
  PutU32(out, static_cast<uint32_t>(request.runs.size()));
  for (const BatchRequest::Run& run : request.runs) {
    PutU64(out, run.begin);
    PutU64(out, run.end);
  }
  PutU32(out, static_cast<uint32_t>(request.bare_chunks.size()));
  for (uint64_t chunk : request.bare_chunks) PutU64(out, chunk);
  PutU32(out, static_cast<uint32_t>(request.hints.size()));
  for (const BatchRequest::ChunkHint& hint : request.hints) {
    PutU64(out, hint.chunk);
    PutU64(out, hint.known_nodes);
    PutU8(out, hint.root_known ? 1 : 0);
  }
}

Result<BatchRequest> DecodeBatchRequest(const uint8_t* data, size_t size) {
  Reader r{data, size};
  if (r.U32() != kRequestMagic) {
    if (r.error == nullptr) r.error = "bad magic";
    return WireError(r, "request");
  }
  BatchRequest request;
  uint32_t runs = r.Count(16);
  request.runs.reserve(runs);
  for (uint32_t i = 0; i < runs && r.error == nullptr; ++i) {
    BatchRequest::Run run;
    run.begin = r.U64();
    run.end = r.U64();
    request.runs.push_back(run);
  }
  uint32_t bare = r.Count(8);
  request.bare_chunks.reserve(bare);
  for (uint32_t i = 0; i < bare && r.error == nullptr; ++i) {
    request.bare_chunks.push_back(r.U64());
  }
  uint32_t hints = r.Count(17);
  request.hints.reserve(hints);
  for (uint32_t i = 0; i < hints && r.error == nullptr; ++i) {
    BatchRequest::ChunkHint hint;
    hint.chunk = r.U64();
    hint.known_nodes = r.U64();
    uint8_t flag = r.U8();
    if (flag > 1) r.error = "root_known flag not boolean";
    hint.root_known = flag == 1;
    request.hints.push_back(hint);
  }
  if (r.error != nullptr) return WireError(r, "request");
  if (r.n != 0) {
    r.error = "trailing bytes after frame";
    return WireError(r, "request");
  }
  return request;
}

void EncodeBatchResponse(const BatchResponse& response,
                         std::vector<uint8_t>* out) {
  PutU32(out, kResponseMagic);
  PutU32(out, static_cast<uint32_t>(response.segments.size()));
  for (const BatchResponse::Segment& seg : response.segments) {
    PutU64(out, seg.begin);
    // csxa-lint: allow(taint-release) framing copies tainted bytes verbatim
    const std::vector<uint8_t>& ct = seg.ciphertext.ReleaseUnverified();
    PutU64(out, ct.size());
    PutBytes(out, ct.data(), ct.size());
  }
  PutU32(out, static_cast<uint32_t>(response.chunks.size()));
  for (const BatchResponse::ChunkMaterial& mat : response.chunks) {
    PutU64(out, mat.chunk_index);
    PutU32(out, mat.first_fragment);
    PutU32(out, mat.last_fragment);
    PutU8(out, 0);  // has_prefix_state: reads are fragment-aligned.
    PutU32(out, static_cast<uint32_t>(mat.proof.size()));
    for (const ProofNode& node : mat.proof) {
      PutU32(out, static_cast<uint32_t>(node.level));
      PutU64(out, node.index);
      PutBytes(out, node.hash.data(), node.hash.size());
    }
    PutU32(out, static_cast<uint32_t>(mat.encrypted_digest.size()));
    PutBytes(out, mat.encrypted_digest.data(), mat.encrypted_digest.size());
  }
}

Result<BatchResponse> DecodeBatchResponse(const uint8_t* data, size_t size) {
  Reader r{data, size};
  if (r.U32() != kResponseMagic) {
    if (r.error == nullptr) r.error = "bad magic";
    return WireError(r, "response");
  }
  BatchResponse response;
  uint32_t segments = r.Count(16);
  response.segments.reserve(segments);
  for (uint32_t i = 0; i < segments && r.error == nullptr; ++i) {
    BatchResponse::Segment seg;
    seg.begin = r.U64();
    uint64_t len = r.U64();
    if (!r.Need(len)) break;
    std::vector<uint8_t> raw(len);
    r.Bytes(raw.data(), len);
    seg.ciphertext = common::UnverifiedBytes(std::move(raw));
    response.segments.push_back(std::move(seg));
  }
  uint32_t chunks = r.Count(25);
  response.chunks.reserve(chunks);
  for (uint32_t i = 0; i < chunks && r.error == nullptr; ++i) {
    BatchResponse::ChunkMaterial mat;
    mat.chunk_index = r.U64();
    mat.first_fragment = r.U32();
    mat.last_fragment = r.U32();
    if (r.U8() != 0 && r.error == nullptr) {
      // Fragment alignment makes prefix states unnecessary; a terminal
      // shipping one is speaking the wrong protocol.
      r.error = "prefix state on batched wire";
    }
    uint32_t proof = r.Count(32);
    mat.proof.reserve(proof);
    for (uint32_t j = 0; j < proof && r.error == nullptr; ++j) {
      ProofNode node;
      node.level = static_cast<int>(r.U32());
      node.index = r.U64();
      r.Bytes(node.hash.data(), node.hash.size());
      mat.proof.push_back(node);
    }
    uint64_t digest_len = r.U32();
    if (!r.Need(digest_len)) break;
    mat.encrypted_digest.resize(digest_len);
    r.Bytes(mat.encrypted_digest.data(), digest_len);
    response.chunks.push_back(std::move(mat));
  }
  if (r.error != nullptr) return WireError(r, "response");
  if (r.n != 0) {
    r.error = "trailing bytes after frame";
    return WireError(r, "response");
  }
  return response;
}

}  // namespace csxa::crypto

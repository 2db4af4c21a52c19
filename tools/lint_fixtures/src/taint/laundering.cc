// Deliberate verify-before-trust violations for csxa_lint --self-test:
// every marked line below is pinned by (file, line, check) in
// EXPECTED_FIXTURE_FINDINGS — append new cases, never reflow these.
// Self-contained stubs so the libclang engine parses the file standalone.
#include <cstring>
#include <vector>

namespace csxa::taint_fixture {

struct UnverifiedBytes {
  std::vector<unsigned char>& ReleaseUnverified();
  unsigned long size() const;
};
struct BatchResponse {
  UnverifiedBytes ciphertext;
  const unsigned char* data() const;
  unsigned long size() const;
};
struct Source {
  BatchResponse ReadBatch(int fragments);
};
struct Navigator {
  static void OpenBuffer(const unsigned char* data, unsigned long size);
};
struct Cache {
  void Record(const unsigned char* node);
};
struct Soe {
  const unsigned char* VerifiedViewOf(const unsigned char* p) const;
  void DecryptVerifiedBatch(const BatchResponse& r, unsigned char* out);
};

// Violation: a freshly read (tainted) response fed straight to the
// navigator — no mint site anywhere on the path.
void DirectSourceToSink(Source* src) {
  BatchResponse resp = src->ReadBatch(4);
  Navigator::OpenBuffer(resp.data(), resp.size());  // line 37: taint-dataflow
}

// Violation: laundering through a plain buffer via memcpy, then writing
// the copy into the digest cache.
void CopyLaunder(Source* src, Cache* cache) {
  BatchResponse resp = src->ReadBatch(4);
  unsigned char plain[64];
  // csxa-lint: allow(taint-release) fixture: seeding the copy-launder path
  const std::vector<unsigned char>& raw = resp.ciphertext.ReleaseUnverified();
  if (!raw.empty()) std::memcpy(plain, raw.data(), raw.size());
  cache->Record(plain);  // line 48: taint-dataflow
}

// Violation: laundering through a raw pointer into the witness minter.
void PointerLaunder(Source* src, Soe* soe) {
  BatchResponse resp = src->ReadBatch(4);
  // csxa-lint: allow(taint-release) fixture: seeding the pointer-launder path
  const unsigned char* p = resp.ciphertext.ReleaseUnverified().data();
  soe->VerifiedViewOf(p);  // line 56: taint-dataflow
}

// Violation: the escape hatch with no justification waiver at all.
void NakedRelease(BatchResponse* resp) {
  resp->ciphertext.ReleaseUnverified().clear();  // line 61: taint-release
}

// Violation: a waiver comment whose justification is missing.
void BareWaiver(BatchResponse* resp) {
  // csxa-lint: allow(taint-release)
  resp->ciphertext.ReleaseUnverified().clear();  // line 67: taint-release
}

// Violation: a naked byte-reinterpret outside common/bytes.h.
const unsigned char* CastLaunder(const char* s) {
  return reinterpret_cast<const unsigned char*>(s);  // 72: byte-reinterpret
}

// Clean: the verified path — reads judged by the mint site, then fed to
// the navigator. Must produce no findings (false-positive regression).
void VerifiedPathIsClean(Source* src, Soe* soe, unsigned char* out) {
  BatchResponse resp = src->ReadBatch(4);
  soe->DecryptVerifiedBatch(resp, out);
  Navigator::OpenBuffer(out, 64);
}

// Violation: a decode into reused storage taints the storage it fills.
bool DecodeBatchResponse(const unsigned char* p, unsigned long n,
                         BatchResponse* out);
void DecodeIntoLaunder(const unsigned char* frame, unsigned long n) {
  BatchResponse resp;
  DecodeBatchResponse(frame, n, &resp);
  Navigator::OpenBuffer(resp.data(), resp.size());  // line 89: taint-dataflow
}

}  // namespace csxa::taint_fixture

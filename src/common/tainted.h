#ifndef CSXA_COMMON_TAINTED_H_
#define CSXA_COMMON_TAINTED_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace csxa::crypto {
class SoeDecryptor;
}  // namespace csxa::crypto

namespace csxa::common {

/// Typestate wall for the paper's verify-before-trust invariant: no byte
/// read off the untrusted terminal may influence the authorized view, the
/// digest cache, or navigation state until it has recombined to an
/// authenticated Merkle root. These wrappers make that dataflow a *type*:
///
///   UnverifiedBytes    anything a crypto::BatchSource produced (local
///                      SecureDocumentStore reads and net::RemoteBatchSource
///                      alike) or wire_format decoded — opaque to everyone
///                      except the verification path.
///   VerifiedPlaintext  readable document bytes; constructible only through
///                      a VerifyPass, which only the Merkle verification
///                      path (crypto::SoeDecryptor) can mint.
///
/// The one escape hatch is UnverifiedBytes::ReleaseUnverified(), every call
/// site of which must carry a written justification enforced by
/// tools/csxa_lint.py (check: taint-release). Everything else — feeding
/// unverified bytes to the navigator, copying a VerifiedPlaintext, forging
/// a VerifyPass, recording unauthenticated material into the digest cache —
/// fails to compile (regression-tested by tests/typestate_compile_test).

/// Passkey of the verification path (SoeDecryptor::DecryptVerifiedBatch,
/// its VerifyChunkAgainstMaterial step, and VerifiedViewOf over the buffer
/// only DecryptVerifiedBatch writes — all methods of SoeDecryptor, the only
/// friend). Stateless; its value *is* the proof that control passed
/// through the digest-chain verification code.
class VerifyPass {
 private:
  VerifyPass() = default;
  VerifyPass(const VerifyPass&) = default;
  friend class ::csxa::crypto::SoeDecryptor;
};

/// Bytes of untrusted provenance. Deliberately not a container: no
/// data(), no iterators, no operator[] — the raw bytes are reachable only
/// through VerifyData() (verification path, passkey-gated) or the linted
/// ReleaseUnverified() escape. Sizes are honest pre-verification data
/// (framing needs them), so size()/empty() stay public. Copyable: a copy
/// of tainted bytes is tainted bytes.
class UnverifiedBytes {
 public:
  UnverifiedBytes() = default;
  explicit UnverifiedBytes(std::vector<uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  size_t size() const { return bytes_.size(); }
  bool empty() const { return bytes_.empty(); }

  /// Replaces the contents with a copy of [data, data + n), reusing the
  /// storage. Writing bytes in exposes nothing: they stay tainted.
  void Assign(const uint8_t* data, size_t n) { bytes_.assign(data, data + n); }

  /// Verification-path read: only SoeDecryptor can produce the pass, so
  /// only code reachable from the Merkle verification path can see the
  /// bytes — exactly the code whose job is to judge them.
  const uint8_t* VerifyData(VerifyPass) const { return bytes_.data(); }

  /// Escape hatch for the handful of legitimate pre-verification uses
  /// (wire framing, fault-injection tooling). Every call site must carry
  ///   // csxa-lint: allow(taint-release) <justification>
  /// or the lint gate fails the build.
  std::vector<uint8_t>& ReleaseUnverified() { return bytes_; }
  const std::vector<uint8_t>& ReleaseUnverified() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

/// Document bytes that recombined to an authenticated Merkle root. Only a
/// VerifyPass holder can construct one; everyone may read it. Move-only:
/// a copy would be a second witness nobody verified. It borrows a buffer
/// that is written exclusively by DecryptVerifiedBatch (the
/// SecureFetcher's document image — see SoeDecryptor::VerifiedViewOf).
class VerifiedPlaintext {
 public:
  VerifiedPlaintext(VerifyPass, const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  VerifiedPlaintext(VerifiedPlaintext&&) noexcept = default;
  VerifiedPlaintext& operator=(VerifiedPlaintext&&) noexcept = default;
  VerifiedPlaintext(const VerifiedPlaintext&) = delete;
  VerifiedPlaintext& operator=(const VerifiedPlaintext&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace csxa::common

#endif  // CSXA_COMMON_TAINTED_H_

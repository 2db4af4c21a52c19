#ifndef CSXA_TESTS_BATCH_READ_H_
#define CSXA_TESTS_BATCH_READ_H_

// Reads an arbitrary byte range of a store through the verified-fetch
// protocol the SOE speaks: one fragment-aligned BatchRequest, verified and
// decrypted by SoeDecryptor::DecryptVerifiedBatch.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crypto/secure_store.h"

namespace csxa::testing {

/// Rounds [pos, pos+n) out to fragment bounds (end clamped to the
/// ciphertext size), fetches it as one batch run, verifies and decrypts it
/// into a plaintext_size() buffer, and returns bytes [pos, pos+n).
inline Result<std::vector<uint8_t>> FetchVerified(
    const crypto::SecureDocumentStore& store, crypto::SoeDecryptor* soe,
    uint64_t pos, uint64_t n) {
  if (n == 0 || pos + n > store.plaintext_size()) {
    return Status::OutOfRange("read outside document");
  }
  const uint64_t frag = store.layout().fragment_size;
  const uint64_t size = store.ciphertext().size();
  crypto::BatchRequest request;
  request.runs.push_back(
      {pos / frag * frag, std::min((pos + n + frag - 1) / frag * frag, size)});
  CSXA_ASSIGN_OR_RETURN(crypto::BatchResponse response,
                        store.ReadBatch(request));
  std::vector<uint8_t> plain(store.plaintext_size());
  CSXA_RETURN_NOT_OK(soe->DecryptVerifiedBatch(request, response, plain.data(),
                                               plain.size()));
  return std::vector<uint8_t>(plain.begin() + pos, plain.begin() + pos + n);
}

}  // namespace csxa::testing

#endif  // CSXA_TESTS_BATCH_READ_H_

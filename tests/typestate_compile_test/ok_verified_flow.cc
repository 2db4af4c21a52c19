// Legitimate flows: everything the typestate wall must keep compiling.
// Builds with -Wall -Wextra -Werror.
#include <cstdint>
#include <utility>
#include <vector>

#include "common/tainted.h"
#include "crypto/secure_store.h"
#include "index/decoder.h"

namespace {

// Honest pre-verification uses: sizes for framing, copying tainted bytes
// around as tainted bytes.
uint64_t FrameSize(const csxa::common::UnverifiedBytes& tainted) {
  csxa::common::UnverifiedBytes still_tainted = tainted;  // copy is fine
  return still_tainted.size() + (tainted.empty() ? 0 : 1);
}

// The verification path writes the buffer; the decryptor then mints the
// witness over it, which consumers may move and hand to the navigator.
csxa::Status VerifyAndOpen(csxa::crypto::SoeDecryptor* soe,
                           const csxa::crypto::BatchRequest& request,
                           const csxa::crypto::BatchResponse& response,
                           std::vector<uint8_t>* buffer) {
  csxa::Status st = soe->DecryptVerifiedBatch(request, response,
                                              buffer->data(), buffer->size());
  if (!st.ok()) return st;
  csxa::common::VerifiedPlaintext view =
      soe->VerifiedViewOf(buffer->data(), buffer->size());
  csxa::common::VerifiedPlaintext moved = std::move(view);
  auto nav = csxa::index::DocumentNavigator::OpenBuffer(moved, nullptr);
  return nav.status();
}

}  // namespace

csxa::Status Probe(csxa::crypto::SoeDecryptor* soe,
                   const csxa::crypto::BatchRequest& request,
                   const csxa::crypto::BatchResponse& response,
                   std::vector<uint8_t>* buffer) {
  if (response.segments.empty() ||
      FrameSize(response.segments[0].ciphertext) == 0) {
    return csxa::Status::OK();
  }
  return VerifyAndOpen(soe, request, response, buffer);
}

// Laundering attempt: construct a VerifiedPlaintext without the passkey.
// The one constructor demands a VerifyPass as its first argument.
#include <cstdint>
#include <vector>

#include "common/tainted.h"

csxa::common::VerifiedPlaintext Attack(const std::vector<uint8_t>& bytes) {
  return csxa::common::VerifiedPlaintext(bytes.data(), bytes.size());
}

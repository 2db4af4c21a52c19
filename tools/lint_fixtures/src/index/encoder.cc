// Fixture: the owner side's failure allowlist is {ParseError,
// InvalidArgument}; an "impossible" Internal escape hatch is rejected.
#include "common/status.h"

namespace csxa::index {

Status SettleWidths(int rounds) {
  if (rounds < 0) return Status::InvalidArgument("fixture: negative rounds");
  if (rounds > 64) {
    return Status::Internal("size fixed point did not converge");
  }
  return Status::OK();
}

}  // namespace csxa::index

// Control case for the layout compile-fail tier: a conforming POD passes
// the audit macro and can read the bytes/peer roll-up constexpr — compiled
// with the identical command line as the WILL_FAIL cases, so a broken
// include path cannot make those pass vacuously.
#include <cstdint>

#include "core/layout_audit.h"

namespace coolstream {

struct LayoutCasePacked {
  double updated;      // 8 bytes
  std::uint32_t hits;  // 4 bytes
  bool live;           // 1 byte + 3 tail padding
};
COOLSTREAM_LAYOUT_AUDIT(LayoutCasePacked, 16);

// Including the header re-proves the real audits and the bytes/peer gate;
// the roll-up must also be usable as a constant downstream.
static_assert(core::layout::kBytesPerPeer > 0);

}  // namespace coolstream

int main() { return 0; }

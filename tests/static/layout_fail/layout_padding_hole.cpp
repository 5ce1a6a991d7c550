// WILL_FAIL: COOLSTREAM_LAYOUT_AUDIT states the intended exact size; the
// misordered members below pad 16 intended bytes out to 24, and the audit
// must reject the difference.  This is also the case for any other size
// drift (a grown member, an added one): sizeof differs from the number.
#include <cstdint>

#include "core/layout_audit.h"

namespace coolstream {

struct LayoutCaseHole {
  bool live;           // 1 byte + 7 padding
  double updated;      // 8 bytes
  std::uint32_t hits;  // 4 bytes + 4 tail padding
};
COOLSTREAM_LAYOUT_AUDIT(LayoutCaseHole, 16);  // packed intent: 8 + 4 + 1 -> 16

}  // namespace coolstream

int main() { return 0; }

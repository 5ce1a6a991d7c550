// WILL_FAIL: a virtual member injects a vptr, so the type is neither
// trivially copyable nor standard layout; COOLSTREAM_LAYOUT_AUDIT must
// reject it.
#include <cstdint>

#include "core/layout_audit.h"

namespace coolstream {

struct LayoutCaseVirtual {
  std::uint64_t generation = 0;
  virtual void on_timer() {}
};
COOLSTREAM_LAYOUT_AUDIT(LayoutCaseVirtual, 8 + sizeof(void*));

}  // namespace coolstream

int main() { return 0; }

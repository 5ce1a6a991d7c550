// WILL_FAIL: a heap-owning member makes the type non-trivially-copyable,
// which COOLSTREAM_LAYOUT_AUDIT must reject — audited state is slab state
// and must survive memcpy into an SoA column.
#include <cstdint>
#include <string>

#include "core/layout_audit.h"

namespace coolstream {

struct LayoutCaseHeapMember {
  std::uint64_t generation = 0;
  std::string label;  // owns heap memory; not trivially copyable
};
COOLSTREAM_LAYOUT_AUDIT(LayoutCaseHeapMember, 8 + sizeof(std::string));

}  // namespace coolstream

int main() { return 0; }

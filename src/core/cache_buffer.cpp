#include "core/cache_buffer.h"

#include <algorithm>
#include <cassert>

namespace coolstream::core {

CacheBuffer::CacheBuffer(BlockCount window_blocks) : window_(window_blocks) {
  assert(window_blocks >= BlockCount(1));
}

bool CacheBuffer::available(SeqNum head, SeqNum seq) const noexcept {
  return seq >= SeqNum(0) && seq <= head && seq >= oldest(head);
}

SeqNum CacheBuffer::clamp_start(SeqNum head, SeqNum requested) const noexcept {
  return std::clamp(requested, oldest(head), head + BlockCount(1));
}

}  // namespace coolstream::core

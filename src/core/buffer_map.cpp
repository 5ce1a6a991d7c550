#include "core/buffer_map.h"

#include <cassert>
#include <charconv>
#include <string_view>

namespace coolstream::core {

namespace {

/// Characters std::to_string produces for `v`: digits plus a '-' sign.
std::size_t decimal_width(std::int64_t v) noexcept {
  std::size_t n = 1;  // first digit (or the lone '0')
  if (v < 0) {
    ++n;  // sign
    v = -v;
  }
  while (v >= 10) {
    ++n;
    v /= 10;
  }
  return n;
}

}  // namespace

BufferMap::BufferMap(int k) : k_(k) {
  assert(k >= 1 && k <= kMaxSubstreams);
  for (int i = 0; i < kMaxSubstreams; ++i) latest_[i] = kNoSeq;
}

std::string BufferMap::encode() const {
  // Wire boundary: sequence numbers serialize as their raw values.
  // Debug/golden format — string formatting is fine off the hot path.
  std::string out;
  for (int i = 0; i < k_; ++i) {
    if (i != 0) out.push_back(',');
    out += std::to_string(
        latest_[i].value());
  }
  out.push_back('|');
  for (int i = 0; i < k_; ++i) {
    out.push_back(((sub_bits_ >> i) & 1u) ? '1' : '0');
  }
  return out;
}

std::size_t BufferMap::wire_size() const noexcept {
  // One byte per digit/sign, k-1 commas, the '|', one bit char per lane.
  std::size_t n = 1 + static_cast<std::size_t>(k_);
  for (int i = 0; i < k_; ++i) {
    if (i != 0) ++n;
    n += decimal_width(latest_[i].value());
  }
  return n;
}

std::optional<BufferMap> BufferMap::decode(const std::string& text) {
  const std::size_t bar = text.find('|');
  if (bar == std::string::npos) return std::nullopt;
  const std::string_view nums(text.data(), bar);
  const std::string_view bits(text.data() + bar + 1, text.size() - bar - 1);

  SeqNum latest[kMaxSubstreams];
  int count = 0;
  std::size_t pos = 0;
  while (pos <= nums.size() && !nums.empty()) {
    std::size_t comma = nums.find(',', pos);
    if (comma == std::string_view::npos) comma = nums.size();
    std::int64_t value = 0;
    const auto* begin = nums.data() + pos;
    const auto* end = nums.data() + comma;
    auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
    if (count == kMaxSubstreams) return std::nullopt;
    latest[count++] = SeqNum(value);
    if (comma == nums.size()) break;
    pos = comma + 1;
  }
  if (count == 0 || static_cast<std::size_t>(count) != bits.size()) {
    return std::nullopt;
  }

  BufferMap bm(count);
  for (int i = 0; i < count; ++i) {
    bm.latest_[i] = latest[i];
    if (bits[static_cast<std::size_t>(i)] == '1') {
      bm.sub_bits_ |= 1u << i;
    } else if (bits[static_cast<std::size_t>(i)] != '0') {
      return std::nullopt;
    }
  }
  return bm;
}

}  // namespace coolstream::core

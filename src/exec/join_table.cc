#include "exec/join_table.h"

namespace ojv {
namespace {

size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

void JoinTable::Build(const std::vector<size_t>& hashes) {
  entries_ = 0;
  for (size_t h : hashes) {
    if (h != kSkipHash) ++entries_;
  }
  // A power of two at most half full, so an empty slot always
  // terminates a probe.
  const size_t capacity =
      entries_ == 0 ? 1 : NextPow2(2 * static_cast<size_t>(entries_));
  mask_ = capacity - 1;
  slots_.assign(capacity, Slot{0, -1});
  for (size_t row = 0; row < hashes.size(); ++row) {
    const size_t h = hashes[row];
    if (h == kSkipHash) continue;
    size_t idx = h & mask_;
    while (slots_[idx].row >= 0) idx = (idx + 1) & mask_;
    slots_[idx] = Slot{h, static_cast<int64_t>(row)};
  }
}

}  // namespace ojv

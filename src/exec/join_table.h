#ifndef OJV_EXEC_JOIN_TABLE_H_
#define OJV_EXEC_JOIN_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ojv {

/// Flat open-addressing multimap from a 64-bit hash to build-side row
/// ids: one contiguous array of (hash, row) slots, power-of-two sized at
/// 50% max load, linear probing. Replaces std::unordered_multimap in the
/// join/dedup/subsumption kernels — no per-node allocation, no pointer
/// chasing on probe, and the backing vector is reused across Build calls
/// (RemoveSubsumed rebuilds per mask pair against the same instance).
///
/// Rows are inserted in ascending row id and linear probing preserves
/// that order among equal-hash entries, so ForEachMatch enumerates
/// matches in build row order.
class JoinTable {
 public:
  /// Sentinel marking a build row to skip (NULL join keys: SQL equality
  /// never matches them). Real hashes must be normalized away from this
  /// value (NormalizeHash) by whoever fills the hash array.
  static constexpr size_t kSkipHash = ~size_t{0};

  /// Keeps a computed hash distinguishable from kSkipHash. The remapped
  /// value only adds an equality-checked collision, never a miss, as
  /// long as every build- and probe-side hash goes through this.
  static size_t NormalizeHash(size_t h) { return h == kSkipHash ? h - 1 : h; }

  /// (Re)builds the table over rows [0, hashes.size()), skipping entries
  /// equal to kSkipHash.
  void Build(const std::vector<size_t>& hashes);

  /// Calls fn(row_id) for every build row whose hash equals `hash`, in
  /// ascending row id order, until fn returns false. Callers re-check
  /// real key equality.
  template <typename Fn>
  void ForEachMatch(size_t hash, Fn&& fn) const {
    if (slots_.empty()) return;
    size_t idx = hash & mask_;
    for (;;) {
      const Slot& slot = slots_[idx];
      if (slot.row < 0) return;
      if (slot.hash == hash && !fn(slot.row)) return;
      idx = (idx + 1) & mask_;
    }
  }

  int64_t size() const { return entries_; }

  /// Allocated slot count (instrumentation: build size vs. occupancy).
  size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    size_t hash;
    int64_t row;
  };

  std::vector<Slot> slots_;
  size_t mask_ = 0;  // capacity - 1 (capacity is a power of two)
  int64_t entries_ = 0;
};

}  // namespace ojv

#endif  // OJV_EXEC_JOIN_TABLE_H_

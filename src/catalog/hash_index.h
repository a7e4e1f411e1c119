#ifndef OJV_CATALOG_HASH_INDEX_H_
#define OJV_CATALOG_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ojv {

/// Append-only secondary hash index over some columns of a Table.
///
/// Layout: a flat open-addressing bucket array (power-of-two sized, at
/// most half full, linear probing) maps each distinct key hash to the
/// head of a chain threaded through one contiguous entry array. An
/// insert is one append to that array plus a head update; a delete does
/// no index work at all. Each entry remembers the (slot, stamp) pair it
/// was made for, and the owning Table bumps a slot's stamp whenever the
/// slot is refilled, so a lookup recognizes and skips entries whose row
/// was deleted or whose slot now holds another row. The Table rebuilds
/// the index once such stale entries outnumber its live rows.
///
/// Rows with a NULL in an indexed column are never appended: SQL
/// equality cannot match them. Keys that share a 64-bit hash share a
/// chain; callers re-check real key equality.
class HashIndex {
 public:
  explicit HashIndex(std::vector<int> positions)
      : positions_(std::move(positions)) {}

  /// Table column positions the index is keyed on, in key order.
  const std::vector<int>& positions() const { return positions_; }

  /// Records that the row filled into `slot` under `stamp` has key hash
  /// `hash`.
  void Append(size_t hash, uint32_t slot, uint32_t stamp);

  /// Drops every entry (the owner refills it when rebuilding).
  void Clear();

  /// Entries appended since the last Clear, stale ones included.
  size_t entries() const { return entries_.size(); }

  /// Heap bytes held by the bucket and entry arrays.
  size_t bytes() const {
    return buckets_.capacity() * sizeof(Bucket) +
           entries_.capacity() * sizeof(Entry);
  }

  /// Calls fn(slot, stamp) for every entry appended under `hash`, newest
  /// first, until fn returns false.
  template <typename Fn>
  void ForEachCandidate(size_t hash, Fn&& fn) const {
    if (buckets_.empty()) return;
    for (size_t b = hash & mask_;; b = (b + 1) & mask_) {
      const Bucket& bucket = buckets_[b];
      if (bucket.head == kNone) return;
      if (bucket.hash != hash) continue;
      for (uint32_t e = bucket.head; e != kNone; e = entries_[e].next) {
        if (!fn(entries_[e].slot, entries_[e].stamp)) return;
      }
      return;
    }
  }

 private:
  static constexpr uint32_t kNone = ~uint32_t{0};

  struct Bucket {
    size_t hash = 0;
    uint32_t head = kNone;  // kNone: empty bucket
  };
  struct Entry {
    uint32_t slot;
    uint32_t stamp;
    uint32_t next;  // older entry with the same hash, or kNone
  };

  /// The bucket holding `hash`, or the empty bucket where it belongs.
  Bucket& BucketFor(size_t hash);
  void Grow();

  std::vector<int> positions_;
  std::vector<Bucket> buckets_;
  size_t mask_ = 0;  // buckets_.size() - 1
  size_t used_buckets_ = 0;
  std::vector<Entry> entries_;
};

}  // namespace ojv

#endif  // OJV_CATALOG_HASH_INDEX_H_

#include "catalog/hash_index.h"

#include "common/check.h"

namespace ojv {

HashIndex::Bucket& HashIndex::BucketFor(size_t hash) {
  for (size_t b = hash & mask_;; b = (b + 1) & mask_) {
    Bucket& bucket = buckets_[b];
    if (bucket.head == kNone || bucket.hash == hash) return bucket;
  }
}

void HashIndex::Grow() {
  std::vector<Bucket> old = std::move(buckets_);
  buckets_.assign(old.empty() ? 16 : 2 * old.size(), Bucket{});
  mask_ = buckets_.size() - 1;
  for (const Bucket& bucket : old) {
    if (bucket.head != kNone) BucketFor(bucket.hash) = bucket;
  }
}

void HashIndex::Append(size_t hash, uint32_t slot, uint32_t stamp) {
  OJV_CHECK(entries_.size() < kNone, "hash index entry count overflow");
  if (buckets_.empty()) Grow();
  Bucket* bucket = &BucketFor(hash);
  if (bucket->head == kNone) {
    // At most half full, so an empty bucket always ends a probe.
    if (2 * (used_buckets_ + 1) > buckets_.size()) {
      Grow();
      bucket = &BucketFor(hash);
    }
    bucket->hash = hash;
    ++used_buckets_;
  }
  entries_.push_back(Entry{slot, stamp, bucket->head});
  bucket->head = static_cast<uint32_t>(entries_.size() - 1);
}

void HashIndex::Clear() {
  buckets_.clear();
  mask_ = 0;
  used_buckets_ = 0;
  entries_.clear();
}

}  // namespace ojv

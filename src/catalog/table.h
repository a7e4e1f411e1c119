#ifndef OJV_CATALOG_TABLE_H_
#define OJV_CATALOG_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/hash_index.h"
#include "catalog/schema.h"
#include "common/check.h"

namespace ojv {

/// A base table: schema + rows + unique-key hash index + secondary hash
/// indexes.
///
/// Every base table must declare a unique key over non-nullable columns
/// (paper §2 restriction). Rows live in stable slots; deletion tombstones
/// a slot and pushes it on a free list so row ids held by indexes stay
/// valid until reuse. Every fill of a slot bumps the slot's stamp, which
/// is how the secondary indexes (HashIndex) tell their stale entries from
/// live ones without any work on delete.
class Table {
 public:
  Table(std::string name, Schema schema, std::vector<std::string> key_columns);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  /// Positions of the unique-key columns within the schema.
  const std::vector<int>& key_positions() const { return key_positions_; }
  const std::vector<std::string>& key_columns() const { return key_columns_; }

  /// Number of live rows.
  int64_t size() const { return live_count_; }

  /// Monotonic modification counter; bumped by every successful insert
  /// or delete. Lets scan caches detect staleness cheaply.
  uint64_t version() const { return version_; }

  /// True when `row` has one value per column, no NULL in a
  /// non-nullable column, and every other value of its column's type:
  /// STRING holds strings, INT64 and DATE hold int64, and FLOAT64 holds
  /// float64 or int64. This is the shape Insert requires.
  bool AcceptsRow(const Row& row) const;
  /// True when `key` has one value per key column: the shape
  /// DeleteByKey and FindByKey require.
  bool AcceptsKey(const Row& key) const {
    return key.size() == key_positions_.size();
  }
  /// The unique-key values of a full row, in key-column order.
  Row KeyOf(const Row& row) const;

  /// Inserts a row. Aborts unless AcceptsRow(row); returns false on
  /// duplicate key.
  bool Insert(Row row);

  /// Deletes the row with the given key values. Returns the deleted row
  /// through *deleted if non-null; returns false if no such key.
  bool DeleteByKey(const Row& key, Row* deleted);

  /// Returns a pointer to the row with the given key, or nullptr.
  const Row* FindByKey(const Row& key) const;

  /// Copies all live rows out (snapshot order is slot order).
  std::vector<Row> Snapshot() const;

  /// Visits all live rows.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < slots_.size(); ++i) {
      if (live_[i]) fn(slots_[i]);
    }
  }

  // --- secondary indexes ---

  /// AccessPath result: fetch through the unique key (FindByKey).
  static constexpr int kUniqueKeyPath = -2;
  /// AccessPath / FindIndex result: no index serves the columns.
  static constexpr int kNoPath = -1;

  /// Adds a secondary hash index over the columns at `positions` (in
  /// key order), filled from the live rows, and returns its id. An
  /// existing index over the same positions is reused.
  int AddIndex(std::vector<int> positions);

  int num_indexes() const { return static_cast<int>(indexes_.size()); }
  const std::vector<int>& index_positions(int index) const {
    return indexes_[static_cast<size_t>(index)].positions();
  }
  /// Id of the index over exactly `positions`, or kNoPath.
  int FindIndex(const std::vector<int>& positions) const;

  /// How to fetch the rows whose columns at `eq_positions` equal given
  /// values: kUniqueKeyPath when the positions include the whole unique
  /// key, else the id of the first index whose columns they include,
  /// else kNoPath.
  int AccessPath(const std::vector<int>& eq_positions) const;

  /// Calls fn(row) for every live row whose `index` columns equal `key`
  /// (values in the index's key order) until fn returns false. A key
  /// with a NULL matches nothing.
  template <typename Fn>
  void ForEachIndexed(int index, const Row& key, Fn&& fn) const {
    const HashIndex& idx = indexes_[static_cast<size_t>(index)];
    const std::vector<int>& positions = idx.positions();
    OJV_CHECK(key.size() == positions.size(), "index key arity mismatch");
    for (const Value& v : key) {
      if (v.is_null()) return;
    }
    idx.ForEachCandidate(HashKeyValues(key), [&](uint32_t slot,
                                                 uint32_t stamp) {
      if (!live_[slot] || stamps_[slot] != stamp) return true;  // stale
      const Row& row = slots_[slot];
      for (size_t i = 0; i < positions.size(); ++i) {
        if (row[static_cast<size_t>(positions[i])] != key[i]) return true;
      }
      return static_cast<bool>(fn(row));
    });
  }

  /// Entries held by `index`, stale ones included (test hook: the index
  /// rebuilds once they exceed twice the live rows).
  size_t index_entries(int index) const {
    return indexes_[static_cast<size_t>(index)].entries();
  }
  /// Heap bytes held by all secondary indexes.
  size_t index_bytes() const;

 private:
  struct KeyRef {
    const Table* table;
    size_t slot;
  };

  size_t HashKeyOf(const Row& row) const;
  size_t HashKeyValues(const Row& key) const;
  bool KeyEquals(size_t slot, const Row& key) const;
  /// Appends the row in `slot` to `index` unless an indexed value is
  /// NULL.
  void IndexSlot(HashIndex* index, size_t slot);
  /// Refills `index` from the live rows, dropping its stale entries.
  void RebuildIndex(HashIndex* index);

  std::string name_;
  Schema schema_;
  std::vector<std::string> key_columns_;
  std::vector<int> key_positions_;

  std::vector<Row> slots_;
  std::vector<char> live_;
  /// Bumped on every fill of a slot; index entries carry the stamp they
  /// were made under.
  std::vector<uint32_t> stamps_;
  std::vector<size_t> free_slots_;
  int64_t live_count_ = 0;
  uint64_t version_ = 0;

  // key hash -> slots (collision chain resolved by KeyEquals).
  std::unordered_multimap<size_t, size_t> key_index_;
  std::vector<HashIndex> indexes_;
};

}  // namespace ojv

#endif  // OJV_CATALOG_TABLE_H_

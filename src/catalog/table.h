#ifndef OJV_CATALOG_TABLE_H_
#define OJV_CATALOG_TABLE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/schema.h"

namespace ojv {

/// A base table: schema + rows + unique-key hash index.
///
/// Every base table must declare a unique key over non-nullable columns
/// (paper §2 restriction). Rows live in stable slots; deletion tombstones
/// a slot and pushes it on a free list so row ids held by indexes stay
/// valid until reuse.
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

 private:
  struct KeyRef {
    const Table* table;
    size_t slot;
  };

  size_t HashKeyOf(const Row& row) const;
  size_t HashKeyValues(const Row& key) const;
  bool KeyEquals(size_t slot, const Row& key) const;

  std::string name_;
  Schema schema_;
  std::vector<std::string> key_columns_;
  std::vector<int> key_positions_;

  std::vector<Row> slots_;
  std::vector<char> live_;
  std::vector<size_t> free_slots_;
  int64_t live_count_ = 0;
  uint64_t version_ = 0;

  // key hash -> slots (collision chain resolved by KeyEquals).
  std::unordered_multimap<size_t, size_t> key_index_;
};

}  // namespace ojv

#endif  // OJV_CATALOG_TABLE_H_

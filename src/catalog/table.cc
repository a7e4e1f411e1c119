#include "catalog/table.h"

#include "common/check.h"

namespace ojv {
namespace {

bool ValueFitsType(const Value& v, ValueType type) {
  switch (type) {
    case ValueType::kString:
      return v.is_string();
    case ValueType::kInt64:
    case ValueType::kDate:
      return v.is_int64();
    case ValueType::kFloat64:
      return v.is_float64() || v.is_int64();
  }
  return false;
}

}  // namespace

Table::Table(std::string name, Schema schema,
             std::vector<std::string> key_columns)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      key_columns_(std::move(key_columns)) {
  OJV_CHECK(!key_columns_.empty(), "table requires a unique key");
  for (const std::string& kc : key_columns_) {
    int pos = schema_.IndexOf(kc);
    OJV_CHECK(!schema_.column(pos).nullable, "key column must be NOT NULL");
    key_positions_.push_back(pos);
  }
}

size_t Table::HashKeyOf(const Row& row) const {
  return HashRowAt(row, key_positions_);
}

size_t Table::HashKeyValues(const Row& key) const {
  size_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : key) {
    h ^= v.Hash();
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool Table::KeyEquals(size_t slot, const Row& key) const {
  const Row& row = slots_[slot];
  for (size_t i = 0; i < key_positions_.size(); ++i) {
    if (row[static_cast<size_t>(key_positions_[i])] != key[i]) return false;
  }
  return true;
}

bool Table::AcceptsRow(const Row& row) const {
  if (static_cast<int>(row.size()) != schema_.num_columns()) return false;
  for (int i = 0; i < schema_.num_columns(); ++i) {
    const Value& v = row[static_cast<size_t>(i)];
    const ColumnDef& col = schema_.column(i);
    if (v.is_null() ? !col.nullable : !ValueFitsType(v, col.type)) {
      return false;
    }
  }
  return true;
}

Row Table::KeyOf(const Row& row) const {
  Row key;
  key.reserve(key_positions_.size());
  for (int p : key_positions_) key.push_back(row[static_cast<size_t>(p)]);
  return key;
}

bool Table::Insert(Row row) {
  OJV_CHECK(AcceptsRow(row),
            "row arity, NULL or value type does not match the schema");
  size_t h = HashKeyOf(row);
  auto range = key_index_.equal_range(h);
  if (range.first != range.second) {
    const Row key = KeyOf(row);
    for (auto it = range.first; it != range.second; ++it) {
      if (KeyEquals(it->second, key)) return false;
    }
  }
  size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(row);
    live_[slot] = 1;
  } else {
    slot = slots_.size();
    slots_.push_back(std::move(row));
    live_.push_back(1);
  }
  key_index_.emplace(h, slot);
  ++live_count_;
  ++version_;
  return true;
}

bool Table::DeleteByKey(const Row& key, Row* deleted) {
  OJV_CHECK(AcceptsKey(key), "key arity mismatch");
  size_t h = HashKeyValues(key);
  auto range = key_index_.equal_range(h);
  for (auto it = range.first; it != range.second; ++it) {
    if (live_[it->second] && KeyEquals(it->second, key)) {
      if (deleted != nullptr) *deleted = slots_[it->second];
      live_[it->second] = 0;
      free_slots_.push_back(it->second);
      slots_[it->second].clear();
      key_index_.erase(it);
      --live_count_;
      ++version_;
      return true;
    }
  }
  return false;
}

const Row* Table::FindByKey(const Row& key) const {
  OJV_CHECK(AcceptsKey(key), "key arity mismatch");
  size_t h = HashKeyValues(key);
  auto range = key_index_.equal_range(h);
  for (auto it = range.first; it != range.second; ++it) {
    if (live_[it->second] && KeyEquals(it->second, key)) {
      return &slots_[it->second];
    }
  }
  return nullptr;
}

std::vector<Row> Table::Snapshot() const {
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(live_count_));
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (live_[i]) out.push_back(slots_[i]);
  }
  return out;
}

}  // namespace ojv

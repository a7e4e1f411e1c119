#include "catalog/table.h"

#include "common/check.h"

namespace ojv {

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
    if (!schema_.column(i).nullable && row[static_cast<size_t>(i)].is_null()) {
      return false;
    }
  }
  return true;
}

bool Table::Insert(Row row) {
  OJV_CHECK(AcceptsRow(row),
            "row arity mismatch or NULL in non-nullable column");
  size_t h = HashKeyOf(row);
  auto range = key_index_.equal_range(h);
  for (auto it = range.first; it != range.second; ++it) {
    Row key;
    for (int p : key_positions_) key.push_back(row[static_cast<size_t>(p)]);
    if (KeyEquals(it->second, key)) return false;
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

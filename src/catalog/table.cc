#include "catalog/table.h"

#include <algorithm>

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

// Indexes smaller than this are never rebuilt: their stale entries
// cost less than the rebuild.
constexpr size_t kMinRebuildEntries = 64;

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
    ++stamps_[slot];
  } else {
    slot = slots_.size();
    slots_.push_back(std::move(row));
    live_.push_back(1);
    stamps_.push_back(0);
  }
  key_index_.emplace(h, slot);
  ++live_count_;
  ++version_;
  for (HashIndex& index : indexes_) {
    IndexSlot(&index, slot);
    // Deletes leave their entries behind; once the stale entries
    // outnumber the live rows, a rebuild pays for itself.
    if (index.entries() > kMinRebuildEntries &&
        index.entries() > 2 * static_cast<size_t>(live_count_)) {
      RebuildIndex(&index);
    }
  }
  return true;
}

void Table::IndexSlot(HashIndex* index, size_t slot) {
  OJV_CHECK(slot < (size_t{1} << 32), "too many slots for an index");
  const Row& row = slots_[slot];
  for (int p : index->positions()) {
    if (row[static_cast<size_t>(p)].is_null()) return;
  }
  index->Append(HashRowAt(row, index->positions()),
                static_cast<uint32_t>(slot), stamps_[slot]);
}

void Table::RebuildIndex(HashIndex* index) {
  index->Clear();
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (live_[i]) IndexSlot(index, i);
  }
}

int Table::AddIndex(std::vector<int> positions) {
  OJV_CHECK(!positions.empty(), "an index needs at least one column");
  for (int p : positions) {
    OJV_CHECK(p >= 0 && p < schema_.num_columns(), "index column out of range");
  }
  const int existing = FindIndex(positions);
  if (existing != kNoPath) return existing;
  indexes_.emplace_back(std::move(positions));
  RebuildIndex(&indexes_.back());
  return num_indexes() - 1;
}

int Table::FindIndex(const std::vector<int>& positions) const {
  for (int i = 0; i < num_indexes(); ++i) {
    if (index_positions(i) == positions) return i;
  }
  return kNoPath;
}

int Table::AccessPath(const std::vector<int>& eq_positions) const {
  auto covers = [&](const std::vector<int>& columns) {
    for (int c : columns) {
      if (std::find(eq_positions.begin(), eq_positions.end(), c) ==
          eq_positions.end()) {
        return false;
      }
    }
    return true;
  };
  if (covers(key_positions_)) return kUniqueKeyPath;
  for (int i = 0; i < num_indexes(); ++i) {
    if (covers(index_positions(i))) return i;
  }
  return kNoPath;
}

size_t Table::index_bytes() const {
  size_t bytes = 0;
  for (const HashIndex& index : indexes_) bytes += index.bytes();
  return bytes;
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

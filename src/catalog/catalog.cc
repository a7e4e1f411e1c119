#include "catalog/catalog.h"

#include "common/check.h"

namespace ojv {

Table* Catalog::CreateTable(const std::string& name, Schema schema,
                            std::vector<std::string> key_columns) {
  OJV_CHECK(tables_.find(name) == tables_.end(), "duplicate table name");
  auto table =
      std::make_unique<Table>(name, std::move(schema), std::move(key_columns));
  Table* raw = table.get();
  tables_[name] = std::move(table);
  return raw;
}

Table* Catalog::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  OJV_CHECK(it != tables_.end(), "unknown table");
  return it->second.get();
}

const Table* Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  OJV_CHECK(it != tables_.end(), "unknown table");
  return it->second.get();
}

bool Catalog::HasTable(const std::string& name) const {
  return tables_.find(name) != tables_.end();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

void Catalog::AddForeignKey(ForeignKey fk) {
  Table* child = GetTable(fk.child_table);
  const Table* parent = GetTable(fk.parent_table);
  OJV_CHECK(fk.child_columns.size() == fk.parent_columns.size(),
            "FK column count mismatch");
  OJV_CHECK(fk.parent_columns == parent->key_columns(),
            "FK must reference the parent's unique key");
  std::vector<int> child_positions;
  for (const std::string& c : fk.child_columns) {
    OJV_CHECK(child->schema().Find(c) >= 0, "unknown FK child column");
    child_positions.push_back(child->schema().IndexOf(c));
  }
  // Parent deletes find their children, and delta joins reach them from
  // a parent Δ, through this index.
  child->AddIndex(std::move(child_positions));
  foreign_keys_.push_back(std::move(fk));
}

int Catalog::ChildIndexOf(const ForeignKey& fk) const {
  const Table* child = GetTable(fk.child_table);
  std::vector<int> positions;
  for (const std::string& c : fk.child_columns) {
    positions.push_back(child->schema().IndexOf(c));
  }
  return child->FindIndex(positions);
}

std::vector<const ForeignKey*> Catalog::ForeignKeysReferencing(
    const std::string& parent_table) const {
  std::vector<const ForeignKey*> out;
  for (const ForeignKey& fk : foreign_keys_) {
    if (fk.parent_table == parent_table) out.push_back(&fk);
  }
  return out;
}

bool Catalog::CheckForeignKeys(std::string* violation) const {
  for (const ForeignKey& fk : foreign_keys_) {
    const Table* child = GetTable(fk.child_table);
    const Table* parent = GetTable(fk.parent_table);
    std::vector<int> child_pos;
    for (const std::string& c : fk.child_columns) {
      child_pos.push_back(child->schema().IndexOf(c));
    }
    bool ok = true;
    child->ForEach([&](const Row& row) {
      if (!ok) return;
      Row key;
      key.reserve(child_pos.size());
      bool any_null = false;
      for (int p : child_pos) {
        const Value& v = row[static_cast<size_t>(p)];
        if (v.is_null()) any_null = true;
        key.push_back(v);
      }
      if (any_null) return;  // NULL FK columns do not reference anything.
      if (parent->FindByKey(key) == nullptr) {
        ok = false;
        if (violation != nullptr) {
          *violation = "FK violation: " + fk.child_table + " -> " +
                       fk.parent_table;
        }
      }
    });
    if (!ok) return false;
  }
  if (violation != nullptr) violation->clear();
  return true;
}

}  // namespace ojv

#ifndef OJV_CATALOG_CATALOG_H_
#define OJV_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/table.h"

namespace ojv {

/// A declared foreign-key constraint from child columns to the parent
/// table's unique key.
///
/// The maintenance optimizations of paper §6 are disabled for a
/// constraint when `cascading_delete` or `deferrable` is set (caveats 2
/// and 3 in §6); caveat 1 (updates modeled as delete+insert) is a
/// per-statement property handled by the maintainer.
struct ForeignKey {
  std::string child_table;
  std::vector<std::string> child_columns;
  std::string parent_table;
  std::vector<std::string> parent_columns;  // must be the parent's key
  bool cascading_delete = false;
  bool deferrable = false;
};

/// Owns tables and foreign-key declarations.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates a table; aborts on duplicate name. Returns the table.
  Table* CreateTable(const std::string& name, Schema schema,
                     std::vector<std::string> key_columns);

  Table* GetTable(const std::string& name);
  const Table* GetTable(const std::string& name) const;
  bool HasTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Declares a foreign key. Aborts if tables/columns do not exist or the
  /// parent columns are not exactly the parent's unique key. Gives the
  /// child table a hash index on the child columns (built from its rows
  /// if it has any).
  void AddForeignKey(ForeignKey fk);

  /// Id of the child-table index AddForeignKey made for `fk`.
  int ChildIndexOf(const ForeignKey& fk) const;

  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  /// Foreign keys whose parent is `parent_table`.
  std::vector<const ForeignKey*> ForeignKeysReferencing(
      const std::string& parent_table) const;

  /// Verifies that all declared constraints hold on current data.
  /// Returns true and leaves *violation empty on success; otherwise
  /// false with a description.
  bool CheckForeignKeys(std::string* violation) const;

 private:
  std::map<std::string, std::unique_ptr<Table>> tables_;
  std::vector<ForeignKey> foreign_keys_;
};

}  // namespace ojv

#endif  // OJV_CATALOG_CATALOG_H_

#ifndef OJV_EXEC_RELATION_H_
#define OJV_EXEC_RELATION_H_

#include <map>
#include <string>
#include <vector>

#include "algebra/scalar_expr.h"
#include "catalog/schema.h"

namespace ojv {

/// A column of an intermediate result, tagged with its source base table.
/// Tags survive every operator (including projection), which is what lets
/// the maintenance expressions test null(T)/¬null(T) and build eq(Ti)
/// join conditions against views and deltas.
struct BoundColumn {
  std::string table;
  std::string column;
  ValueType type = ValueType::kInt64;
  /// If >= 0, this column is the key_ordinal-th unique-key column of its
  /// source table. Carried on the column so merged schemas (joins,
  /// unions) keep key knowledge without consulting the catalog.
  int key_ordinal = -1;

  std::string ToString() const { return table + "." + column; }
};

/// Schema of an intermediate result: ordered tagged columns plus, for
/// every source table present, the positions of that table's unique-key
/// columns (used for null-extension tests and eq(Ti) predicates).
class BoundSchema {
 public:
  BoundSchema() = default;

  int num_columns() const { return static_cast<int>(columns_.size()); }
  const BoundColumn& column(int i) const {
    return columns_[static_cast<size_t>(i)];
  }
  const std::vector<BoundColumn>& columns() const { return columns_; }

  /// Appends a column (col.key_ordinal marks key membership).
  void AddColumn(BoundColumn col);

  /// Position of table.column, or -1.
  int Find(const std::string& table, const std::string& column) const;
  int Find(const ColumnRef& ref) const { return Find(ref.table, ref.column); }
  /// Position of table.column; aborts if absent.
  int IndexOf(const ColumnRef& ref) const;

  bool HasTable(const std::string& table) const;
  /// Tables present in this schema.
  std::vector<std::string> Tables() const;

  /// Positions of `table`'s key columns in this schema, in key order.
  /// Empty if the table is absent or its key columns were projected away.
  const std::vector<int>& KeyPositions(const std::string& table) const;

  /// True when the full key of `table` is available in this schema.
  bool HasFullKey(const std::string& table) const;

  std::string ToString() const;

 private:
  struct TableInfo {
    std::vector<int> key_positions;  // indexed by key ordinal; -1 = missing
    bool key_complete = true;
  };

  std::vector<BoundColumn> columns_;
  std::map<std::string, TableInfo> tables_;
  static const std::vector<int> kEmptyPositions;
};

/// An intermediate result: bound schema + rows.
class Relation {
 public:
  Relation() = default;
  explicit Relation(BoundSchema schema) : schema_(std::move(schema)) {}

  const BoundSchema& schema() const { return schema_; }
  BoundSchema* mutable_schema() { return &schema_; }

  int64_t size() const { return static_cast<int64_t>(rows_.size()); }
  bool empty() const { return rows_.empty(); }
  const std::vector<Row>& rows() const { return rows_; }
  std::vector<Row>* mutable_rows() { return &rows_; }
  const Row& row(int64_t i) const { return rows_[static_cast<size_t>(i)]; }

  void Add(Row row) { rows_.push_back(std::move(row)); }

  /// True if `row` is null-extended on `table` (its key columns are NULL
  /// in this row). Requires the table's key to be present in the schema.
  bool IsNullExtendedOn(const Row& row, const std::string& table) const;

  /// Order-insensitive bag equality against `other` (same rows with the
  /// same multiplicities after aligning column order). Schemas must bind
  /// the same (table, column) sets. This is the comparison the executor
  /// equivalence tests use: every physical plan — hash or sort-merge
  /// joins, any join order — must produce Equals results.
  bool Equals(const Relation& other) const;

  /// Multi-line debug rendering (sorted if `sorted`), for tests/examples.
  std::string ToString(bool sorted = false) const;

 private:
  BoundSchema schema_;
  std::vector<Row> rows_;
};

/// Sorts rows with Value::SortCompare lexicographically (test helper).
void SortRows(std::vector<Row>* rows);

/// True when the two relations contain the same bag of rows after
/// aligning `b`'s columns to `a`'s schema order. Schemas must bind the
/// same (table, column) sets. Test helper.
bool SameBag(const Relation& a, const Relation& b, std::string* diff);

}  // namespace ojv

#endif  // OJV_EXEC_RELATION_H_

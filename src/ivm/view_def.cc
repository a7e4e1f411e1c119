#include "ivm/view_def.h"

#include <map>

#include "common/check.h"
#include "exec/evaluator.h"

namespace ojv {
namespace {

void CollectTables(const RelExprPtr& expr, std::set<std::string>* tables) {
  if (expr->kind() == RelKind::kScan) {
    OJV_CHECK(tables->insert(expr->table()).second,
              "view references a table twice (self-joins unsupported)");
    return;
  }
  OJV_CHECK(expr->kind() == RelKind::kSelect || expr->kind() == RelKind::kJoin,
            "view tree may contain only scans, selects and joins");
  for (const RelExprPtr& c : expr->children()) CollectTables(c, tables);
}

void CollectConjuncts(const RelExprPtr& expr,
                      std::vector<ScalarExprPtr>* conjuncts) {
  if (expr->kind() == RelKind::kScan) return;
  if (expr->kind() == RelKind::kSelect || expr->kind() == RelKind::kJoin) {
    for (const ScalarExprPtr& c : SplitConjuncts(expr->predicate())) {
      if (!c->ReferencedTables().empty()) conjuncts->push_back(c);
    }
  }
  for (const RelExprPtr& c : expr->children()) CollectConjuncts(c, conjuncts);
}

// Validates join/select predicate placement and the paper's predicate
// restrictions, recursively. Returns the subtree's table set.
std::set<std::string> ValidateTree(const RelExprPtr& expr) {
  if (expr->kind() == RelKind::kScan) {
    return {expr->table()};
  }
  if (expr->kind() == RelKind::kSelect) {
    std::set<std::string> tables = ValidateTree(expr->input());
    for (const ScalarExprPtr& c : SplitConjuncts(expr->predicate())) {
      std::set<std::string> refs = c->ReferencedTables();
      OJV_CHECK(refs.size() <= 2, "predicates must reference <= 2 tables");
      for (const std::string& t : refs) {
        OJV_CHECK(tables.count(t) > 0,
                  "selection references a table outside its subtree");
        OJV_CHECK(c->IsNullRejectingOn(t),
                  "view predicates must be null-rejecting");
      }
    }
    return tables;
  }
  OJV_CHECK(expr->kind() == RelKind::kJoin, "unexpected node in view tree");
  JoinKind k = expr->join_kind();
  OJV_CHECK(k == JoinKind::kInner || k == JoinKind::kLeftOuter ||
                k == JoinKind::kRightOuter || k == JoinKind::kFullOuter,
            "views may contain only inner and outer joins");
  std::set<std::string> left = ValidateTree(expr->left());
  std::set<std::string> right = ValidateTree(expr->right());
  std::set<std::string> all = left;
  all.insert(right.begin(), right.end());
  bool any_cross = false;
  for (const ScalarExprPtr& c : SplitConjuncts(expr->predicate())) {
    std::set<std::string> refs = c->ReferencedTables();
    OJV_CHECK(refs.size() <= 2, "predicates must reference <= 2 tables");
    for (const std::string& t : refs) {
      OJV_CHECK(all.count(t) > 0,
                "join predicate references a table outside the join");
      OJV_CHECK(c->IsNullRejectingOn(t),
                "view predicates must be null-rejecting");
    }
    bool touches_left = false;
    bool touches_right = false;
    for (const std::string& t : refs) {
      if (left.count(t) > 0) touches_left = true;
      if (right.count(t) > 0) touches_right = true;
    }
    if (touches_left && touches_right) any_cross = true;
  }
  OJV_CHECK(any_cross, "join predicate must connect both inputs");
  return all;
}

RelExprPtr ReplaceOuterJoins(const RelExprPtr& expr) {
  switch (expr->kind()) {
    case RelKind::kScan:
      return expr;
    case RelKind::kSelect:
      return RelExpr::Select(ReplaceOuterJoins(expr->input()),
                             expr->predicate());
    case RelKind::kJoin:
      return RelExpr::Join(JoinKind::kInner, ReplaceOuterJoins(expr->left()),
                           ReplaceOuterJoins(expr->right()),
                           expr->predicate());
    default:
      OJV_CHECK(false, "unexpected node in view tree");
  }
}

// Wraps every Scan(T) in a Project to columns.at(T).
RelExprPtr NarrowScans(
    const RelExprPtr& expr,
    const std::map<std::string, std::vector<ColumnRef>>& columns) {
  switch (expr->kind()) {
    case RelKind::kScan:
      return RelExpr::Project(expr, columns.at(expr->table()));
    case RelKind::kSelect:
      return RelExpr::Select(NarrowScans(expr->input(), columns),
                             expr->predicate());
    case RelKind::kJoin:
      return RelExpr::Join(expr->join_kind(),
                           NarrowScans(expr->left(), columns),
                           NarrowScans(expr->right(), columns),
                           expr->predicate());
    default:
      OJV_CHECK(false, "unexpected node in view tree");
  }
}

}  // namespace

ViewDef::ViewDef(std::string name, RelExprPtr tree,
                 std::vector<ColumnRef> output, const Catalog& catalog)
    : name_(std::move(name)), tree_(std::move(tree)), output_(std::move(output)) {
  OJV_CHECK(tree_ != nullptr, "view requires a tree");
  OJV_CHECK(!output_.empty(), "view requires output columns");
  CollectTables(tree_, &tables_);
  for (const std::string& t : tables_) {
    OJV_CHECK(catalog.HasTable(t), "view references unknown table");
  }
  ValidateTree(tree_);
  CollectConjuncts(tree_, &conjuncts_);

  // Build the tagged output schema and verify key coverage.
  for (size_t i = 0; i < output_.size(); ++i) {
    for (size_t j = i + 1; j < output_.size(); ++j) {
      OJV_CHECK(!(output_[i] == output_[j]), "duplicate output column");
    }
  }
  for (const ColumnRef& ref : output_) {
    OJV_CHECK(tables_.count(ref.table) > 0,
              "output column from unreferenced table");
    const Table* table = catalog.GetTable(ref.table);
    int pos = table->schema().Find(ref.column);
    OJV_CHECK(pos >= 0, "output references unknown column");
    int key_ordinal = -1;
    for (size_t k = 0; k < table->key_positions().size(); ++k) {
      if (table->key_positions()[k] == pos) key_ordinal = static_cast<int>(k);
    }
    output_schema_.AddColumn(BoundColumn{
        ref.table, ref.column, table->schema().column(pos).type, key_ordinal});
  }
  for (const std::string& t : tables_) {
    OJV_CHECK(output_schema_.HasFullKey(t),
              "view output must include every table's unique key");
  }

  // Per table, the columns the output or a predicate reads.
  std::vector<ColumnRef> refs = output_;
  for (const ScalarExprPtr& c : conjuncts_) c->CollectColumns(&refs);
  const std::set<ColumnRef> read(refs.begin(), refs.end());
  std::map<std::string, std::vector<ColumnRef>> columns;
  for (const std::string& t : tables_) {
    const Schema& schema = catalog.GetTable(t)->schema();
    std::vector<ColumnRef>& kept = columns[t];
    for (int i = 0; i < schema.num_columns(); ++i) {
      const ColumnRef ref{t, schema.column(i).name};
      if (read.count(ref) > 0) kept.push_back(ref);
    }
  }
  evaluable_ = RelExpr::Project(NarrowScans(tree_, columns), output_);
}

ViewDef ViewDef::CoreView(const Catalog& catalog) const {
  return ViewDef(name_ + "_core", ReplaceOuterJoins(tree_), output_, catalog);
}

}  // namespace ojv

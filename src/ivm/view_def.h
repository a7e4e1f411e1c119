#ifndef OJV_IVM_VIEW_DEF_H_
#define OJV_IVM_VIEW_DEF_H_

#include <set>
#include <string>
#include <vector>

#include "algebra/rel_expr.h"
#include "catalog/catalog.h"
#include "exec/relation.h"

namespace ojv {

/// Definition of an SPOJ view: a join tree (scans, selects, inner and
/// outer joins) plus an output column list. The projection is kept
/// outside the tree because every maintenance rewrite operates on the
/// join tree and projects at the end.
///
/// Restrictions enforced (paper §2): each base table referenced at most
/// once; every predicate conjunct references at most two tables and is
/// null-rejecting on each table it references; the output includes the
/// full unique key of every referenced table (so the view "outputs a
/// unique key" and deltas can be applied by key).
class ViewDef {
 public:
  /// Builds and validates; aborts with a diagnostic on violations.
  ViewDef(std::string name, RelExprPtr tree, std::vector<ColumnRef> output,
          const Catalog& catalog);

  const std::string& name() const { return name_; }
  const RelExprPtr& tree() const { return tree_; }
  const std::vector<ColumnRef>& output() const { return output_; }

  /// Tables referenced by the view.
  const std::set<std::string>& tables() const { return tables_; }

  /// Every atomic predicate conjunct appearing in the view (join
  /// predicates and selections).
  const std::vector<ScalarExprPtr>& conjuncts() const { return conjuncts_; }

  /// The view's output schema with table tags and key ordinals.
  const BoundSchema& output_schema() const { return output_schema_; }

  /// Complete evaluable expression: the output projection over the
  /// join tree, with every Scan(T) wrapped in a Project to the columns of
  /// T that the output or a predicate conjunct reads (in T's column
  /// order). The output holds every table's key, so each narrowed scan
  /// keeps it. Same bag as Project(tree(), output()); built once.
  const RelExprPtr& WithProjection() const { return evaluable_; }

  /// The "core view" of the experiments section: same tree with every
  /// outer join replaced by an inner join.
  ViewDef CoreView(const Catalog& catalog) const;

 private:
  std::string name_;
  RelExprPtr tree_;
  std::vector<ColumnRef> output_;
  std::set<std::string> tables_;
  std::vector<ScalarExprPtr> conjuncts_;
  BoundSchema output_schema_;
  RelExprPtr evaluable_;
};

}  // namespace ojv

#endif  // OJV_IVM_VIEW_DEF_H_

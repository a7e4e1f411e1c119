#ifndef OJV_NORMALFORM_TERM_H_
#define OJV_NORMALFORM_TERM_H_

#include <set>
#include <string>
#include <vector>

#include "algebra/rel_expr.h"
#include "algebra/scalar_expr.h"

namespace ojv {

/// One term of the join-disjunctive normal form: a select-inner-join
/// expression  σ_{p1 ∧ ... ∧ pk}(T1 × ... × Tm)  identified by its source
/// table set (unique within a view) and carrying the applicable
/// predicate conjuncts.
struct Term {
  /// Source tables Ti. Tuples of this term are null-extended on every
  /// other view table.
  std::set<std::string> source;
  /// Conjuncts applicable to this term (each references only tables in
  /// `source`).
  std::vector<ScalarExprPtr> predicates;

  /// "{R,S,T}"-style label as used in the paper's figures.
  std::string Label() const;

  /// True when `other.source` is a strict superset of `source`.
  bool IsStrictSubsetOf(const Term& other) const;

  /// Builds the evaluable expression σ_p(T1 join T2 join ... join Tm):
  /// inner joins in name order, each conjunct attached where all its
  /// tables are first bound (a selection on T1's scan, else a join).
  RelExprPtr ToRelExpr() const;
};

/// Evaluable expression for the minimum union E1 ⊕ E2 ⊕ ... ⊕ En of all
/// terms — the normal form itself. Used in tests to validate JDNF
/// equivalence against the original view tree.
RelExprPtr NormalFormRelExpr(const std::vector<Term>& terms);

}  // namespace ojv

#endif  // OJV_NORMALFORM_TERM_H_

#include "normalform/jdnf.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"

namespace ojv {
namespace {

// Attaches the conjuncts of `predicate` to `term`. Returns false (term
// must be discarded) if a conjunct references a table outside the term's
// source set: every predicate is null-rejecting, so it cannot hold on
// tuples null-extended on a referenced table.
bool ApplyPredicate(const ScalarExprPtr& predicate, Term* term) {
  for (const ScalarExprPtr& conjunct : SplitConjuncts(predicate)) {
    // Constant conjuncts (e.g. literal TRUE used for cross joins) apply
    // everywhere.
    std::set<std::string> refs = conjunct->ReferencedTables();
    for (const std::string& t : refs) {
      if (term->source.count(t) == 0) return false;
    }
    if (!refs.empty()) term->predicates.push_back(conjunct);
  }
  return true;
}

std::vector<Term> Walk(const RelExprPtr& expr) {
  switch (expr->kind()) {
    case RelKind::kScan: {
      Term t;
      t.source.insert(expr->table());
      return {t};
    }
    case RelKind::kSelect: {
      std::vector<Term> in = Walk(expr->input());
      std::vector<Term> out;
      for (Term& term : in) {
        if (ApplyPredicate(expr->predicate(), &term)) {
          out.push_back(std::move(term));
        }
      }
      return out;
    }
    case RelKind::kJoin: {
      const JoinKind kind = expr->join_kind();
      OJV_CHECK(kind == JoinKind::kInner || kind == JoinKind::kLeftOuter ||
                    kind == JoinKind::kRightOuter ||
                    kind == JoinKind::kFullOuter,
                "JDNF input must be an SPOJ tree");
      std::vector<Term> left = Walk(expr->left());
      std::vector<Term> right = Walk(expr->right());
      std::vector<Term> out;
      // "Multiplication": every cross combination that the (null-
      // rejecting) join predicate can accept.
      for (const Term& l : left) {
        for (const Term& r : right) {
          Term combined;
          combined.source = l.source;
          combined.source.insert(r.source.begin(), r.source.end());
          combined.predicates = l.predicates;
          combined.predicates.insert(combined.predicates.end(),
                                     r.predicates.begin(),
                                     r.predicates.end());
          if (ApplyPredicate(expr->predicate(), &combined)) {
            out.push_back(std::move(combined));
          }
        }
      }
      if (kind == JoinKind::kLeftOuter || kind == JoinKind::kFullOuter) {
        out.insert(out.end(), left.begin(), left.end());
      }
      if (kind == JoinKind::kRightOuter || kind == JoinKind::kFullOuter) {
        out.insert(out.end(), right.begin(), right.end());
      }
      return out;
    }
    default:
      OJV_CHECK(false, "unsupported operator in SPOJ view tree");
  }
}

// True if `conjunct` is `left.col = right.col` for the given refs in
// either order.
bool IsEqualityBetween(const ScalarExprPtr& conjunct, const ColumnRef& a,
                       const ColumnRef& b) {
  if (conjunct->kind() != ScalarKind::kCompare ||
      conjunct->compare_op() != CompareOp::kEq) {
    return false;
  }
  if (conjunct->left()->kind() != ScalarKind::kColumn ||
      conjunct->right()->kind() != ScalarKind::kColumn) {
    return false;
  }
  const ColumnRef& l = conjunct->left()->column();
  const ColumnRef& r = conjunct->right()->column();
  return (l == a && r == b) || (l == b && r == a);
}

// True when the term's predicate set contains the full FK equijoin
// child.fk_i = parent.key_i for all i.
bool TermJoinsOnForeignKey(const Term& term, const ForeignKey& fk) {
  for (size_t i = 0; i < fk.child_columns.size(); ++i) {
    ColumnRef child{fk.child_table, fk.child_columns[i]};
    ColumnRef parent{fk.parent_table, fk.parent_columns[i]};
    bool found = false;
    for (const ScalarExprPtr& conjunct : term.predicates) {
      if (IsEqualityBetween(conjunct, child, parent)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

// Structural equivalence treating column equalities as symmetric
// (a = b matches b = a).
bool PredEquivalent(const ScalarExpr& a, const ScalarExpr& b) {
  if (a.Equals(b)) return true;
  if (a.kind() == ScalarKind::kCompare && b.kind() == ScalarKind::kCompare &&
      a.compare_op() == CompareOp::kEq && b.compare_op() == CompareOp::kEq) {
    return a.left()->Equals(*b.right()) && a.right()->Equals(*b.left());
  }
  return false;
}

bool SamePredicateSet(const std::vector<ScalarExprPtr>& a,
                      const std::vector<ScalarExprPtr>& b) {
  if (a.size() != b.size()) return false;
  std::vector<bool> used(b.size(), false);
  for (const ScalarExprPtr& pa : a) {
    bool found = false;
    for (size_t i = 0; i < b.size(); ++i) {
      if (!used[i] && PredEquivalent(*pa, *b[i])) {
        used[i] = true;
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

// Conjuncts of the FK equijoin for structural set comparison.
std::vector<ScalarExprPtr> FkConjuncts(const ForeignKey& fk) {
  std::vector<ScalarExprPtr> out;
  for (size_t i = 0; i < fk.child_columns.size(); ++i) {
    out.push_back(ScalarExpr::ColumnsEqual(
        ColumnRef{fk.child_table, fk.child_columns[i]},
        ColumnRef{fk.parent_table, fk.parent_columns[i]}));
  }
  return out;
}

// A term is prunable when an FK guarantees each of its tuples is
// subsumed by a tuple of the parent term source ∪ {fk.parent}: the FK
// child is in the source, the parent is not, the child's FK columns are
// NOT NULL (so every child tuple references some parent row), and the
// parent term adds exactly the FK join conjuncts — no extra predicate
// that a referenced parent row might fail.
bool TermPrunable(const Term& term, const std::vector<Term>& all,
                  const Catalog& catalog) {
  for (const ForeignKey& fk : catalog.foreign_keys()) {
    if (fk.deferrable) continue;
    if (term.source.count(fk.child_table) == 0) continue;
    if (term.source.count(fk.parent_table) > 0) continue;
    const Table* child = catalog.GetTable(fk.child_table);
    bool fk_cols_not_null = true;
    for (const std::string& c : fk.child_columns) {
      if (child->schema().column(child->schema().IndexOf(c)).nullable) {
        fk_cols_not_null = false;
      }
    }
    if (!fk_cols_not_null) continue;

    std::set<std::string> parent_source = term.source;
    parent_source.insert(fk.parent_table);
    int parent_index = FindTerm(all, parent_source);
    if (parent_index < 0) continue;
    const Term& parent = all[static_cast<size_t>(parent_index)];
    if (!TermJoinsOnForeignKey(parent, fk)) continue;

    std::vector<ScalarExprPtr> expected = term.predicates;
    std::vector<ScalarExprPtr> fk_conjuncts = FkConjuncts(fk);
    expected.insert(expected.end(), fk_conjuncts.begin(), fk_conjuncts.end());
    if (SamePredicateSet(expected, parent.predicates)) return true;
  }
  return false;
}

}  // namespace

int FindTerm(const std::vector<Term>& terms,
             const std::set<std::string>& source) {
  for (size_t i = 0; i < terms.size(); ++i) {
    if (terms[i].source == source) return static_cast<int>(i);
  }
  return -1;
}

std::vector<Term> ComputeJdnf(const RelExprPtr& tree, const Catalog& catalog,
                              const JdnfOptions& options) {
  OJV_CHECK(tree != nullptr, "null view tree");
  std::vector<Term> terms = Walk(tree);

  // Source sets must be unique (each table referenced once).
  for (size_t i = 0; i < terms.size(); ++i) {
    for (size_t j = i + 1; j < terms.size(); ++j) {
      OJV_CHECK(terms[i].source != terms[j].source,
                "duplicate term source set; self-joins are unsupported");
    }
  }

  if (options.exploit_foreign_keys) {
    // Iterate pruning to a fixpoint: removing a term never enables more
    // pruning (the test looks only at the surviving parent), but pruning
    // is cheap and a fixpoint keeps the reasoning simple.
    std::vector<Term> kept;
    for (const Term& t : terms) {
      if (!TermPrunable(t, terms, catalog)) kept.push_back(t);
    }
    static obs::Counter& pruned = obs::Registry::Global().GetCounter(
        "ojv.normalform.fk_pruned_terms");
    pruned.Add(static_cast<int64_t>(terms.size() - kept.size()));
    terms = std::move(kept);
  }

  // Deterministic order: larger source sets first, then by label.
  std::stable_sort(terms.begin(), terms.end(),
                   [](const Term& a, const Term& b) {
                     if (a.source.size() != b.source.size()) {
                       return a.source.size() > b.source.size();
                     }
                     return a.Label() < b.Label();
                   });
  return terms;
}

}  // namespace ojv

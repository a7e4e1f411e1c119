#include "matching/view_matching.h"

#include <set>

#include "exec/evaluator.h"
#include "normalform/jdnf.h"
#include "obs/metrics.h"

namespace ojv {
namespace {

// Structural equivalence treating column equalities as symmetric.
bool SameConjunct(const ScalarExpr& a, const ScalarExpr& b) {
  if (a.Equals(b)) return true;
  if (a.kind() == ScalarKind::kCompare && b.kind() == ScalarKind::kCompare &&
      a.compare_op() == CompareOp::kEq && b.compare_op() == CompareOp::kEq) {
    return a.left()->Equals(*b.right()) && a.right()->Equals(*b.left());
  }
  return false;
}

// Extracts (column, op, literal) from a comparison in either orientation,
// flipping the operator when the literal is on the left.
bool AsRangeConstraint(const ScalarExpr& e, ColumnRef* column, CompareOp* op,
                       Value* literal) {
  if (e.kind() != ScalarKind::kCompare) return false;
  const ScalarExprPtr& l = e.left();
  const ScalarExprPtr& r = e.right();
  if (l->kind() == ScalarKind::kColumn && r->kind() == ScalarKind::kLiteral) {
    *column = l->column();
    *op = e.compare_op();
    *literal = r->literal();
    return true;
  }
  if (l->kind() == ScalarKind::kLiteral && r->kind() == ScalarKind::kColumn) {
    *column = r->column();
    *literal = l->literal();
    switch (e.compare_op()) {
      case CompareOp::kLt:
        *op = CompareOp::kGt;
        break;
      case CompareOp::kLe:
        *op = CompareOp::kGe;
        break;
      case CompareOp::kGt:
        *op = CompareOp::kLt;
        break;
      case CompareOp::kGe:
        *op = CompareOp::kLe;
        break;
      default:
        *op = e.compare_op();
        break;
    }
    return true;
  }
  return false;
}

// True when range constraint (c, qop, qlit) implies (c, vop, vlit):
// every value satisfying the query side satisfies the view side.
bool RangeImplies(CompareOp qop, const Value& qlit, CompareOp vop,
                  const Value& vlit) {
  int cmp = 0;
  if (!qlit.SqlCompare(vlit, &cmp)) return false;
  switch (vop) {
    case CompareOp::kLt:
      // x <op> qlit  ⇒  x < vlit
      if (qop == CompareOp::kLt) return cmp <= 0;
      if (qop == CompareOp::kLe) return cmp < 0;
      if (qop == CompareOp::kEq) return cmp < 0;
      return false;
    case CompareOp::kLe:
      if (qop == CompareOp::kLt || qop == CompareOp::kLe ||
          qop == CompareOp::kEq) {
        return cmp <= 0;
      }
      return false;
    case CompareOp::kGt:
      if (qop == CompareOp::kGt) return cmp >= 0;
      if (qop == CompareOp::kGe) return cmp > 0;
      if (qop == CompareOp::kEq) return cmp > 0;
      return false;
    case CompareOp::kGe:
      if (qop == CompareOp::kGt || qop == CompareOp::kGe ||
          qop == CompareOp::kEq) {
        return cmp >= 0;
      }
      return false;
    case CompareOp::kEq:
      return qop == CompareOp::kEq && cmp == 0;
    case CompareOp::kNe:
      if (qop == CompareOp::kNe) return cmp == 0;
      if (qop == CompareOp::kEq) return cmp != 0;
      if (qop == CompareOp::kLt || qop == CompareOp::kLe) {
        return qop == CompareOp::kLt ? cmp <= 0 : cmp < 0;
      }
      if (qop == CompareOp::kGt || qop == CompareOp::kGe) {
        return qop == CompareOp::kGt ? cmp >= 0 : cmp > 0;
      }
      return false;
  }
  return false;
}

// True when some query conjunct implies the view conjunct.
bool Implied(const ScalarExpr& view_conjunct,
             const std::vector<ScalarExprPtr>& query_conjuncts) {
  for (const ScalarExprPtr& q : query_conjuncts) {
    if (SameConjunct(view_conjunct, *q)) return true;
  }
  ColumnRef vcol, qcol;
  CompareOp vop, qop;
  Value vlit, qlit;
  if (!AsRangeConstraint(view_conjunct, &vcol, &vop, &vlit)) return false;
  for (const ScalarExprPtr& q : query_conjuncts) {
    if (AsRangeConstraint(*q, &qcol, &qop, &qlit) && qcol == vcol &&
        RangeImplies(qop, qlit, vop, vlit)) {
      return true;
    }
  }
  return false;
}

// nn(t) / n(t) over the view's output key columns.
ScalarExprPtr KeyIsNull(const BoundSchema& schema, const std::string& table,
                        bool want_null) {
  const std::vector<int>& keys = schema.KeyPositions(table);
  const BoundColumn& col = schema.column(keys[0]);
  ScalarExprPtr test =
      ScalarExpr::IsNull(ScalarExpr::Column(col.table, col.column));
  return want_null ? test : ScalarExpr::Not(test);
}

MatchResult MatchViewImpl(const ViewDef& query, const ViewDef& view,
                          const Catalog& catalog) {
  MatchResult result;
  if (query.tables() != view.tables()) {
    result.reason = "query and view reference different table sets";
    return result;
  }

  // Normal forms. FK pruning must agree between the two, so use the same
  // options for both (pruned terms are empty either way).
  std::vector<Term> query_terms = ComputeJdnf(query.tree(), catalog);
  std::vector<Term> view_terms = ComputeJdnf(view.tree(), catalog);

  // Condition 2: every query term backed by a view term, implied preds.
  for (const Term& qt : query_terms) {
    int vi = FindTerm(view_terms, qt.source);
    if (vi < 0) {
      result.reason = "view lacks term " + qt.Label();
      return result;
    }
    const Term& vt = view_terms[static_cast<size_t>(vi)];
    for (const ScalarExprPtr& v : vt.predicates) {
      if (!Implied(*v, qt.predicates)) {
        result.reason = "view term " + vt.Label() +
                        " filters on " + v->ToString() +
                        " which the query does not imply";
        return result;
      }
    }
  }

  // Condition 3: dropped view terms must not hide retained subsets —
  // pattern-rejecting a term's rows loses the subsumed narrower tuples
  // a retained subset term would need, which requires [6]'s null-if
  // compensation to resurrect. For queries over the *same* table set
  // this cannot actually arise: outer-join weakening (fo→lo→⋈) drops
  // the preserved side's terms — always the *smaller* sources — and a
  // null-rejecting selection drops the terms not covering its columns,
  // again smaller ones; no SPOJ rewrite of the same tree drops a
  // superset while keeping a strict subset. The check is therefore a
  // safeguard (e.g. against hand-built term lists), not a live path.
  std::vector<const Term*> dropped;
  for (const Term& vt : view_terms) {
    if (FindTerm(query_terms, vt.source) < 0) dropped.push_back(&vt);
  }
  for (const Term* d : dropped) {
    for (const Term& qt : query_terms) {
      if (qt.IsStrictSubsetOf(*d)) {
        result.reason =
            "dropping view term " + d->Label() + " would hide tuples of " +
            qt.Label() + " (null-if compensation not supported)";
        return result;
      }
    }
  }

  // Compensation conjuncts: query conjuncts with no syntactic twin in
  // the view. Condition 4: they may only reference core tables.
  std::set<std::string> core = query_terms.empty()
                                   ? std::set<std::string>{}
                                   : query_terms[0].source;
  for (const Term& qt : query_terms) {
    std::set<std::string> next;
    for (const std::string& t : core) {
      if (qt.source.count(t) > 0) next.insert(t);
    }
    core = std::move(next);
  }
  std::vector<ScalarExprPtr> extra;
  for (const ScalarExprPtr& q : query.conjuncts()) {
    bool in_view = false;
    for (const ScalarExprPtr& v : view.conjuncts()) {
      if (SameConjunct(*q, *v)) {
        in_view = true;
        break;
      }
    }
    if (in_view) continue;
    for (const std::string& t : q->ReferencedTables()) {
      if (core.count(t) == 0) {
        result.reason = "compensation predicate " + q->ToString() +
                        " references " + t +
                        ", which is null-extended in some retained term";
        return result;
      }
    }
    extra.push_back(q);
  }

  // Condition 5: column availability.
  const BoundSchema& vout = view.output_schema();
  for (const ColumnRef& ref : query.output()) {
    if (vout.Find(ref) < 0) {
      result.reason = "view does not output " + ref.ToString();
      return result;
    }
  }
  std::vector<ColumnRef> needed;
  for (const ScalarExprPtr& e : extra) e->CollectColumns(&needed);
  for (const ColumnRef& ref : needed) {
    if (vout.Find(ref) < 0) {
      result.reason = "view does not output " + ref.ToString() +
                      " needed by the compensation";
      return result;
    }
  }

  // Build the rewrite: pattern acceptance ∧ extra conjuncts, projected.
  RelExprPtr expr = RelExpr::DeltaScan("#view");
  if (!dropped.empty() || !extra.empty()) {
    std::vector<ScalarExprPtr> acceptance;
    if (!dropped.empty()) {
      std::vector<ScalarExprPtr> patterns;
      for (const Term& qt : query_terms) {
        std::vector<ScalarExprPtr> tests;
        for (const std::string& t : view.tables()) {
          tests.push_back(
              KeyIsNull(vout, t, /*want_null=*/qt.source.count(t) == 0));
        }
        patterns.push_back(ScalarExpr::And(std::move(tests)));
      }
      acceptance.push_back(ScalarExpr::Or(std::move(patterns)));
    }
    acceptance.insert(acceptance.end(), extra.begin(), extra.end());
    expr = RelExpr::Select(expr, MakeConjunction(std::move(acceptance)));
  }
  result.rewrite = RelExpr::Project(expr, query.output());
  result.matched = true;
  return result;
}

}  // namespace

MatchResult MatchView(const ViewDef& query, const ViewDef& view,
                      const Catalog& catalog) {
  MatchResult result = MatchViewImpl(query, view, catalog);
  static obs::Counter& attempts =
      obs::Registry::Global().GetCounter("ojv.matching.attempts");
  static obs::Counter& matched =
      obs::Registry::Global().GetCounter("ojv.matching.matched");
  static obs::Counter& rejected =
      obs::Registry::Global().GetCounter("ojv.matching.rejected");
  attempts.Add(1);
  (result.matched ? matched : rejected).Add(1);
  return result;
}

std::optional<Relation> AnswerFromView(const ViewDef& query,
                                       const ViewDef& view,
                                       const MaterializedView& contents,
                                       const Catalog& catalog) {
  MatchResult match = MatchView(query, view, catalog);
  if (!match.matched) return std::nullopt;
  Relation view_relation = contents.AsRelation();
  Evaluator evaluator(&catalog);
  evaluator.BindDelta("#view", &view_relation);
  return evaluator.EvalToRelation(match.rewrite);
}

std::optional<Relation> AnswerFromDatabase(const ViewDef& query, Database* db,
                                           std::string* matched_view) {
  for (ViewMaintainer* maintainer : db->Views()) {
    std::optional<Relation> answer = AnswerFromView(
        query, maintainer->view_def(), maintainer->view(), *db->catalog());
    if (answer.has_value()) {
      if (matched_view != nullptr) {
        *matched_view = maintainer->view_def().name();
      }
      return answer;
    }
  }
  return std::nullopt;
}

}  // namespace ojv

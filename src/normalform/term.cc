#include "normalform/term.h"

#include <algorithm>

#include "common/check.h"

namespace ojv {

std::string Term::Label() const {
  std::string out = "{";
  bool first = true;
  for (const std::string& t : source) {
    if (!first) out += ",";
    out += t;
    first = false;
  }
  return out + "}";
}

bool Term::IsStrictSubsetOf(const Term& other) const {
  if (source.size() >= other.source.size()) return false;
  return std::includes(other.source.begin(), other.source.end(),
                       source.begin(), source.end());
}

RelExprPtr Term::ToRelExpr() const {
  OJV_CHECK(!source.empty(), "term without source tables");
  // Place each conjunct at the first join where all its tables are bound;
  // single-table conjuncts become selections on the scan.
  std::vector<bool> used(predicates.size(), false);
  std::set<std::string> bound;
  RelExprPtr expr;

  auto conjuncts_bound_by = [&](const std::string& new_table) {
    std::vector<ScalarExprPtr> out;
    for (size_t i = 0; i < predicates.size(); ++i) {
      if (used[i]) continue;
      std::set<std::string> refs = predicates[i]->ReferencedTables();
      bool ok = true;
      for (const std::string& t : refs) {
        if (t != new_table && bound.count(t) == 0) {
          ok = false;
          break;
        }
      }
      if (ok) {
        out.push_back(predicates[i]);
        used[i] = true;
      }
    }
    return out;
  };

  for (const std::string& table : source) {
    RelExprPtr scan = RelExpr::Scan(table);
    if (expr == nullptr) {
      std::vector<ScalarExprPtr> preds = conjuncts_bound_by(table);
      bound.insert(table);
      expr = preds.empty() ? scan : RelExpr::Select(scan, MakeConjunction(preds));
    } else {
      std::vector<ScalarExprPtr> preds = conjuncts_bound_by(table);
      bound.insert(table);
      ScalarExprPtr join_pred = preds.empty()
                                    ? ScalarExpr::Literal(Value::Int64(1))
                                    : MakeConjunction(preds);
      expr = RelExpr::Join(JoinKind::kInner, expr, scan, join_pred);
    }
  }
  for (size_t i = 0; i < predicates.size(); ++i) {
    OJV_CHECK(used[i], "term predicate references tables outside its source");
  }
  return expr;
}

RelExprPtr NormalFormRelExpr(const std::vector<Term>& terms) {
  OJV_CHECK(!terms.empty(), "empty normal form");
  RelExprPtr expr = terms[0].ToRelExpr();
  for (size_t i = 1; i < terms.size(); ++i) {
    expr = RelExpr::MinUnion(expr, terms[i].ToRelExpr());
  }
  return expr;
}

}  // namespace ojv

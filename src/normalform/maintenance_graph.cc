#include "normalform/maintenance_graph.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"

namespace ojv {
namespace {

// True if `conjunct` is an equality between exactly these two columns.
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

// Theorem 3: the net contribution of a directly affected term is
// unaffected if its source contains another table R with a foreign key
// referencing the updated table T, and the term joins R and T on that FK.
bool TermImmuneByForeignKey(const Term& term, const std::string& updated_table,
                            const Catalog& catalog) {
  for (const ForeignKey* fk :
       catalog.ForeignKeysReferencing(updated_table)) {
    if (!ForeignKeyUsableForMaintenance(*fk)) continue;
    if (term.source.count(fk->child_table) == 0) continue;
    bool joins_on_fk = true;
    for (size_t i = 0; i < fk->child_columns.size() && joins_on_fk; ++i) {
      ColumnRef child{fk->child_table, fk->child_columns[i]};
      ColumnRef parent{fk->parent_table, fk->parent_columns[i]};
      bool found = false;
      for (const ScalarExprPtr& conjunct : term.predicates) {
        if (IsEqualityBetween(conjunct, child, parent)) {
          found = true;
          break;
        }
      }
      joins_on_fk = found;
    }
    if (joins_on_fk) return true;
  }
  return false;
}

}  // namespace

const char* AffectKindName(AffectKind kind) {
  switch (kind) {
    case AffectKind::kDirect:
      return "D";
    case AffectKind::kIndirect:
      return "I";
    case AffectKind::kUnaffected:
      return "U";
  }
  return "?";
}

bool ForeignKeyUsableForMaintenance(const ForeignKey& fk) {
  return !fk.cascading_delete && !fk.deferrable;
}

MaintenanceGraph::MaintenanceGraph(const std::vector<Term>& terms,
                                   const SubsumptionGraph& graph,
                                   const std::string& updated_table,
                                   const Catalog& catalog,
                                   const MaintenanceGraphOptions& options) {
  const int n = static_cast<int>(terms.size());
  kinds_.assign(static_cast<size_t>(n), AffectKind::kUnaffected);
  direct_parents_.resize(static_cast<size_t>(n));
  indirect_parents_.resize(static_cast<size_t>(n));

  // Pass 1: directly affected terms, with the Theorem 3 reduction.
  for (int i = 0; i < n; ++i) {
    const Term& term = terms[static_cast<size_t>(i)];
    if (term.source.count(updated_table) == 0) continue;
    if (options.exploit_foreign_keys &&
        TermImmuneByForeignKey(term, updated_table, catalog)) {
      ++fk_eliminated_;
      static obs::Counter& eliminated = obs::Registry::Global().GetCounter(
          "ojv.normalform.theorem3_eliminations");
      eliminated.Add(1);
      continue;  // eliminated from the maintenance graph
    }
    kinds_[static_cast<size_t>(i)] = AffectKind::kDirect;
  }

  // Pass 2: indirectly affected terms — those with at least one
  // *surviving* directly affected immediate parent.
  for (int i = 0; i < n; ++i) {
    if (kinds_[static_cast<size_t>(i)] == AffectKind::kDirect) continue;
    if (terms[static_cast<size_t>(i)].source.count(updated_table) > 0) {
      continue;  // direct-but-eliminated: stays out of the graph
    }
    for (int parent : graph.Parents(i)) {
      if (kinds_[static_cast<size_t>(parent)] == AffectKind::kDirect) {
        kinds_[static_cast<size_t>(i)] = AffectKind::kIndirect;
        break;
      }
    }
  }

  for (int i = 0; i < n; ++i) {
    switch (kinds_[static_cast<size_t>(i)]) {
      case AffectKind::kDirect:
        direct_.push_back(i);
        break;
      case AffectKind::kIndirect:
        indirect_.push_back(i);
        break;
      case AffectKind::kUnaffected:
        break;
    }
    for (int parent : graph.Parents(i)) {
      if (kinds_[static_cast<size_t>(parent)] == AffectKind::kDirect) {
        direct_parents_[static_cast<size_t>(i)].push_back(parent);
      } else if (kinds_[static_cast<size_t>(parent)] == AffectKind::kIndirect) {
        indirect_parents_[static_cast<size_t>(i)].push_back(parent);
      }
    }
  }
}

std::string MaintenanceGraph::ToString(const std::vector<Term>& terms) const {
  std::vector<std::string> parts;
  for (size_t i = 0; i < kinds_.size(); ++i) {
    if (kinds_[i] == AffectKind::kUnaffected) continue;
    parts.push_back(terms[i].Label() + ":" + AffectKindName(kinds_[i]));
  }
  std::sort(parts.begin(), parts.end());
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += " ";
    out += parts[i];
  }
  return out;
}

}  // namespace ojv

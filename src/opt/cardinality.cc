#include "opt/cardinality.h"

#include <algorithm>
#include <cmath>

namespace ojv {
namespace opt {

namespace {

double Clamp01(double s) {
  if (s < 0) return 0;
  if (s > 1) return 1;
  return s;
}

}  // namespace

void CardinalityEstimator::SetDeltaRows(const std::string& table,
                                        double rows) {
  delta_rows_[table] = rows < 0 ? 0 : rows;
}

double CardinalityEstimator::TableRows(const std::string& table) const {
  const TableStats* stats = stats_ ? stats_->Get(table) : nullptr;
  if (stats == nullptr) return kUnknownTableRows;
  return static_cast<double>(stats->row_count);
}

double CardinalityEstimator::Ndv(const ColumnRef& ref) const {
  const TableStats* stats = stats_ ? stats_->Get(ref.table) : nullptr;
  if (stats == nullptr) return std::sqrt(kUnknownTableRows);
  double fallback = std::sqrt(std::max(1.0, static_cast<double>(stats->row_count)));
  return stats->DistinctOf(ref.column, fallback);
}

double CardinalityEstimator::Estimate(const RelExprPtr& expr) {
  if (expr == nullptr) return 0;
  switch (expr->kind()) {
    case RelKind::kScan:
      return TableRows(expr->table());
    case RelKind::kDeltaScan: {
      auto it = delta_rows_.find(expr->table());
      return it != delta_rows_.end() ? it->second : 1.0;
    }
    case RelKind::kSelect:
      return Estimate(expr->input()) * Selectivity(expr->predicate());
    case RelKind::kProject:
    case RelKind::kDedup:
    case RelKind::kSubsumeRemove:
    case RelKind::kNullIf:
      // λ never changes counts; δ/↓ only shrink — pass-through is a safe
      // (pessimistic) bound for ordering decisions.
      return Estimate(expr->input());
    case RelKind::kJoin: {
      double left = Estimate(expr->left());
      double inner = left * JoinFanout(expr->right(), expr->predicate());
      switch (expr->join_kind()) {
        case JoinKind::kInner:
          return inner;
        case JoinKind::kLeftOuter:
          return std::max(inner, left);
        case JoinKind::kRightOuter:
          return std::max(inner, Estimate(expr->right()));
        case JoinKind::kFullOuter:
          return std::max(inner,
                          std::max(left, Estimate(expr->right())));
        case JoinKind::kLeftSemi:
          return std::min(left, inner);
        case JoinKind::kLeftAnti:
          return std::max(left - inner, 0.0);
      }
      return inner;
    }
    case RelKind::kOuterUnion:
    case RelKind::kMinUnion:
      return Estimate(expr->left()) + Estimate(expr->right());
  }
  return 0;
}

double CardinalityEstimator::JoinFanout(const RelExprPtr& right,
                                        const ScalarExprPtr& pred) {
  double fanout = Estimate(right);
  for (const ScalarExprPtr& c : SplitConjuncts(pred)) {
    if (c->kind() == ScalarKind::kCompare &&
        c->compare_op() == CompareOp::kEq &&
        c->left()->kind() == ScalarKind::kColumn &&
        c->right()->kind() == ScalarKind::kColumn) {
      // Containment of values: matching rows per left row is
      // |right| / max(ndv_l, ndv_r).
      double ndv = std::max(
          {Ndv(c->left()->column()), Ndv(c->right()->column()), 1.0});
      fanout /= ndv;
    } else {
      fanout *= ConjunctSelectivity(c);
    }
  }
  return std::max(fanout, 0.0);
}

double CardinalityEstimator::Selectivity(const ScalarExprPtr& pred) {
  if (pred == nullptr) return 1.0;
  double sel = 1.0;
  for (const ScalarExprPtr& c : SplitConjuncts(pred)) {
    sel *= ConjunctSelectivity(c);
  }
  return Clamp01(sel);
}

double CardinalityEstimator::ConjunctSelectivity(const ScalarExprPtr& c) {
  switch (c->kind()) {
    case ScalarKind::kLiteral:
      return c->literal().is_null() ? 0.0 : 1.0;
    case ScalarKind::kAnd: {
      double sel = 1.0;
      for (const ScalarExprPtr& child : c->children()) {
        sel *= ConjunctSelectivity(child);
      }
      return Clamp01(sel);
    }
    case ScalarKind::kOr: {
      double none = 1.0;
      for (const ScalarExprPtr& child : c->children()) {
        none *= 1.0 - ConjunctSelectivity(child);
      }
      return Clamp01(1.0 - none);
    }
    case ScalarKind::kNot:
      return Clamp01(1.0 - ConjunctSelectivity(c->child()));
    case ScalarKind::kIsNull: {
      if (c->child()->kind() == ScalarKind::kColumn) {
        const ColumnRef& ref = c->child()->column();
        const TableStats* stats = stats_ ? stats_->Get(ref.table) : nullptr;
        const ColumnStats* col =
            stats != nullptr ? stats->Column(ref.column) : nullptr;
        if (col != nullptr && stats->row_count > 0) {
          return Clamp01(static_cast<double>(col->null_count) /
                         static_cast<double>(stats->row_count));
        }
      }
      return 0.1;
    }
    case ScalarKind::kCompare: {
      const ScalarExprPtr& l = c->left();
      const ScalarExprPtr& r = c->right();
      bool l_col = l->kind() == ScalarKind::kColumn;
      bool r_col = r->kind() == ScalarKind::kColumn;
      if (l_col && r_col) {
        if (c->compare_op() == CompareOp::kEq) {
          double ndv =
              std::max({Ndv(l->column()), Ndv(r->column()), 1.0});
          return 1.0 / ndv;
        }
        return kDefaultSelectivity;
      }
      const ScalarExpr* col_side = l_col ? l.get() : (r_col ? r.get() : nullptr);
      const ScalarExpr* lit_side = l_col ? r.get() : (r_col ? l.get() : nullptr);
      if (col_side == nullptr || lit_side->kind() != ScalarKind::kLiteral) {
        return kDefaultSelectivity;
      }
      double ndv = Ndv(col_side->column());
      CompareOp op = c->compare_op();
      // Normalize to column-on-the-left.
      if (!l_col) {
        switch (op) {
          case CompareOp::kLt: op = CompareOp::kGt; break;
          case CompareOp::kLe: op = CompareOp::kGe; break;
          case CompareOp::kGt: op = CompareOp::kLt; break;
          case CompareOp::kGe: op = CompareOp::kLe; break;
          default: break;
        }
      }
      if (op == CompareOp::kEq) return 1.0 / std::max(ndv, 1.0);
      if (op == CompareOp::kNe) {
        return Clamp01(1.0 - 1.0 / std::max(ndv, 1.0));
      }
      // Range comparison: interpolate against the min/max sketch.
      const Value& lit = lit_side->literal();
      if (!lit.is_null() && !lit.is_string()) {
        const TableStats* stats =
            stats_ ? stats_->Get(col_side->column().table) : nullptr;
        const ColumnStats* col =
            stats != nullptr ? stats->Column(col_side->column().column)
                             : nullptr;
        if (col != nullptr && col->has_range && col->max > col->min) {
          double v = lit.AsDouble();
          double frac = (v - col->min) / (col->max - col->min);
          if (op == CompareOp::kLt || op == CompareOp::kLe) {
            return Clamp01(frac);
          }
          return Clamp01(1.0 - frac);
        }
      }
      return kDefaultSelectivity;
    }
    case ScalarKind::kColumn:
      return kDefaultSelectivity;
  }
  return kDefaultSelectivity;
}

}  // namespace opt
}  // namespace ojv

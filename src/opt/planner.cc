#include "opt/planner.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "exec/evaluator.h"

namespace ojv {
namespace opt {

namespace {

bool IsLeaf(const RelExprPtr& e) {
  return e->kind() == RelKind::kScan || e->kind() == RelKind::kDeltaScan;
}

bool IsSimpleRight(const RelExprPtr& e) {
  if (IsLeaf(e)) return true;
  return e->kind() == RelKind::kSelect && IsLeaf(e->input());
}

// One main-path step of a decomposed left-deep tree.
struct Step {
  RelKind kind = RelKind::kJoin;
  // kJoin
  JoinKind join_kind = JoinKind::kInner;
  RelExprPtr right;
  std::set<std::string> right_tables;
  std::string right_table;  // single right table, "" when composite
  bool reorderable = false;
  // kJoin / kSelect / kNullIf
  ScalarExprPtr pred;
  std::set<std::string> pred_tables;
  // kNullIf
  std::set<std::string> null_tables;
};

/// Splits a left-deep expression into its base leaf and the bottom-up
/// main-path step sequence. Returns false (planner falls back to the
/// static expression) on any node outside the delta-tree grammar or a
/// join whose right operand is not simple.
bool Decompose(const RelExprPtr& expr, RelExprPtr* base,
               std::vector<Step>* steps) {
  std::vector<Step> top_down;
  RelExprPtr cur = expr;
  while (true) {
    switch (cur->kind()) {
      case RelKind::kScan:
      case RelKind::kDeltaScan:
        *base = cur;
        steps->assign(top_down.rbegin(), top_down.rend());
        return true;
      case RelKind::kSelect: {
        Step s;
        s.kind = RelKind::kSelect;
        s.pred = cur->predicate();
        if (s.pred != nullptr) s.pred_tables = s.pred->ReferencedTables();
        top_down.push_back(std::move(s));
        cur = cur->input();
        break;
      }
      case RelKind::kNullIf: {
        Step s;
        s.kind = RelKind::kNullIf;
        s.pred = cur->predicate();
        if (s.pred != nullptr) s.pred_tables = s.pred->ReferencedTables();
        s.null_tables = cur->null_tables();
        top_down.push_back(std::move(s));
        cur = cur->input();
        break;
      }
      case RelKind::kDedup:
      case RelKind::kSubsumeRemove: {
        Step s;
        s.kind = cur->kind();
        top_down.push_back(std::move(s));
        cur = cur->input();
        break;
      }
      case RelKind::kJoin: {
        if (!IsSimpleRight(cur->right())) return false;
        Step s;
        s.kind = RelKind::kJoin;
        s.join_kind = cur->join_kind();
        s.right = cur->right();
        s.right_tables = cur->right()->ReferencedTables();
        if (s.right_tables.size() == 1) s.right_table = *s.right_tables.begin();
        s.pred = cur->predicate();
        if (s.pred != nullptr) s.pred_tables = s.pred->ReferencedTables();
        // Only inner and left-outer steps provably commute within a run
        // (DESIGN.md §10); anything else is a barrier.
        s.reorderable = s.join_kind == JoinKind::kInner ||
                        s.join_kind == JoinKind::kLeftOuter;
        top_down.push_back(std::move(s));
        cur = cur->left();
        break;
      }
      default:
        return false;  // project / unions: not a delta main path
    }
  }
}

/// Output cardinality of one join step given the prefix cardinality.
double ApplyJoinCard(JoinKind kind, double card, double fanout,
                     double right_rows) {
  double inner = card * fanout;
  switch (kind) {
    case JoinKind::kInner:
      return inner;
    case JoinKind::kLeftOuter:
      return std::max(inner, card);
    case JoinKind::kRightOuter:
      return std::max(inner, right_rows);
    case JoinKind::kFullOuter:
      return std::max(inner, std::max(card, right_rows));
    case JoinKind::kLeftSemi:
      return std::min(card, inner);
    case JoinKind::kLeftAnti:
      return std::max(card - inner, 0.0);
  }
  return inner;
}

bool Placeable(const Step& s, const std::set<std::string>& avail) {
  for (const std::string& t : s.pred_tables) {
    if (avail.count(t) == 0 && s.right_tables.count(t) == 0) return false;
  }
  return true;
}

/// Orders one run of reorderable join steps. `run` holds indices into
/// `steps`; returns the chosen permutation of those indices. Exhaustive
/// branch-and-bound up to `exhaustive_max` steps, greedy beyond. Both
/// are deterministic: candidates are tried in original-index order and
/// only a strictly better cost replaces the incumbent, so among
/// cost-ties the order closest to the static plan wins.
std::vector<int> OrderRun(const std::vector<Step>& steps,
                          const std::vector<int>& run,
                          const std::vector<double>& fanout,
                          const std::vector<double>& right_rows,
                          const std::set<std::string>& avail_in,
                          double card_in, int exhaustive_max) {
  int n = static_cast<int>(run.size());
  if (n <= 1) return run;

  if (n <= exhaustive_max) {
    std::vector<int> best;
    std::vector<int> cur;
    double best_cost = std::numeric_limits<double>::infinity();
    std::set<std::string> avail = avail_in;
    std::function<void(uint32_t, double, double)> dfs =
        [&](uint32_t used, double card, double cost) {
          if (cost >= best_cost) return;
          if (static_cast<int>(cur.size()) == n) {
            best_cost = cost;
            best = cur;
            return;
          }
          for (int i = 0; i < n; ++i) {
            if (used & (1u << i)) continue;
            const Step& s = steps[static_cast<size_t>(run[static_cast<size_t>(i)])];
            if (!Placeable(s, avail)) continue;
            double next_card =
                ApplyJoinCard(s.join_kind, card, fanout[static_cast<size_t>(i)],
                              right_rows[static_cast<size_t>(i)]);
            std::vector<std::string> added;
            for (const std::string& t : s.right_tables) {
              if (avail.insert(t).second) added.push_back(t);
            }
            cur.push_back(run[static_cast<size_t>(i)]);
            dfs(used | (1u << i), next_card, cost + next_card);
            cur.pop_back();
            for (const std::string& t : added) avail.erase(t);
          }
        };
    dfs(0, card_in, 0.0);
    // The static order is always a valid completion, so best is set.
    return best.empty() ? run : best;
  }

  // Greedy: repeatedly take the placeable step with the smallest
  // resulting cardinality (ties: smallest original index). The
  // lowest-index unplaced step is always placeable (all its original
  // predecessors have smaller indices, hence are already placed or it is
  // itself the minimum), so this terminates.
  std::vector<int> order;
  std::vector<bool> used(static_cast<size_t>(n), false);
  std::set<std::string> avail = avail_in;
  double card = card_in;
  for (int placed = 0; placed < n; ++placed) {
    int pick = -1;
    double pick_card = std::numeric_limits<double>::infinity();
    for (int i = 0; i < n; ++i) {
      if (used[static_cast<size_t>(i)]) continue;
      const Step& s = steps[static_cast<size_t>(run[static_cast<size_t>(i)])];
      if (!Placeable(s, avail)) continue;
      double next_card =
          ApplyJoinCard(s.join_kind, card, fanout[static_cast<size_t>(i)],
                        right_rows[static_cast<size_t>(i)]);
      if (next_card < pick_card) {
        pick_card = next_card;
        pick = i;
      }
    }
    if (pick < 0) return run;  // cannot happen; keep static order if it does
    used[static_cast<size_t>(pick)] = true;
    order.push_back(run[static_cast<size_t>(pick)]);
    card = pick_card;
    const Step& s = steps[static_cast<size_t>(run[static_cast<size_t>(pick)])];
    avail.insert(s.right_tables.begin(), s.right_tables.end());
  }
  return order;
}

RelExprPtr Rebuild(const RelExprPtr& base, const std::vector<Step>& steps,
                   const std::vector<int>& order) {
  RelExprPtr e = base;
  for (int idx : order) {
    const Step& s = steps[static_cast<size_t>(idx)];
    switch (s.kind) {
      case RelKind::kJoin:
        e = RelExpr::Join(s.join_kind, e, s.right, s.pred);
        break;
      case RelKind::kSelect:
        e = RelExpr::Select(e, s.pred);
        break;
      case RelKind::kNullIf:
        e = RelExpr::NullIf(e, s.null_tables, s.pred);
        break;
      case RelKind::kDedup:
        e = RelExpr::Dedup(e);
        break;
      case RelKind::kSubsumeRemove:
        e = RelExpr::SubsumeRemove(e);
        break;
      default:
        break;
    }
  }
  return e;
}

// Local mirror of ivm's IsLeftDeep (opt must not depend on ivm).
bool ValidateLeftDeep(const RelExprPtr& expr) {
  switch (expr->kind()) {
    case RelKind::kScan:
    case RelKind::kDeltaScan:
      return true;
    case RelKind::kSelect:
    case RelKind::kDedup:
    case RelKind::kSubsumeRemove:
    case RelKind::kNullIf:
      return ValidateLeftDeep(expr->input());
    case RelKind::kJoin:
      return ValidateLeftDeep(expr->left()) && IsSimpleRight(expr->right());
    default:
      return false;
  }
}

void Annotate(const RelExprPtr& e, CardinalityEstimator* est,
              std::unordered_map<const RelExpr*, double>* out) {
  for (const RelExprPtr& child : e->children()) Annotate(child, est, out);
  (*out)[e.get()] = est->Estimate(e);
}

/// Marks the main-path joins that should probe: ProbePath finds the
/// step an access path, and est(left rows) × (1 + fanout), the lookups
/// plus the rows they fetch, is below est(rows of T), what a hash build
/// reads.
void MarkProbeJoins(const Catalog& catalog, CardinalityEstimator* est,
                    PlannedDelta* plan) {
  for (const RelExpr* cur = plan->expr.get(); cur != nullptr;) {
    switch (cur->kind()) {
      case RelKind::kJoin: {
        if (ProbePath(*cur, catalog) != Table::kNoPath) {
          const RelExprPtr& right = cur->right();
          const RelExprPtr& scan =
              right->kind() == RelKind::kSelect ? right->input() : right;
          const double left_rows = plan->node_est.at(cur->left().get());
          const double fanout = est->JoinFanout(right, cur->predicate());
          if (left_rows * (1 + fanout) < est->Estimate(scan)) {
            plan->probe_joins.insert(cur);
          }
        }
        cur = cur->left().get();
        break;
      }
      case RelKind::kSelect:
      case RelKind::kNullIf:
      case RelKind::kDedup:
      case RelKind::kSubsumeRemove:
        cur = cur->input().get();
        break;
      default:
        cur = nullptr;  // the base leaf
        break;
    }
  }
}

}  // namespace

PlannedDelta DeltaPlanner::Plan(const RelExprPtr& static_expr,
                                const std::string& delta_table,
                                double delta_rows) {
  PlannedDelta result;
  result.expr = static_expr;
  result.reordered = false;

  RelExprPtr base;
  std::vector<Step> steps;
  if (static_expr == nullptr || !Decompose(static_expr, &base, &steps)) {
    return result;  // static fallback
  }

  CardinalityEstimator est(stats_);
  est.SetDeltaRows(delta_table, delta_rows);

  // Per-join-step estimates, order-independent (containment assumption).
  std::vector<double> step_fanout(steps.size(), 0);
  std::vector<double> step_right_rows(steps.size(), 0);
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i].kind != RelKind::kJoin) continue;
    step_fanout[i] = est.JoinFanout(steps[i].right, steps[i].pred);
    step_right_rows[i] = est.Estimate(steps[i].right);
  }

  // Walk the step list, reordering each maximal run of reorderable joins.
  std::vector<int> order;
  order.reserve(steps.size());
  std::set<std::string> avail = base->ReferencedTables();
  double card = est.Estimate(base);
  size_t i = 0;
  while (i < steps.size()) {
    const Step& s = steps[i];
    if (s.kind == RelKind::kJoin && s.reorderable) {
      std::vector<int> run;
      size_t j = i;
      while (j < steps.size() && steps[j].kind == RelKind::kJoin &&
             steps[j].reorderable) {
        run.push_back(static_cast<int>(j));
        ++j;
      }
      std::vector<double> run_fanout, run_rows;
      for (int idx : run) {
        run_fanout.push_back(step_fanout[static_cast<size_t>(idx)]);
        run_rows.push_back(step_right_rows[static_cast<size_t>(idx)]);
      }
      std::vector<int> chosen = OrderRun(steps, run, run_fanout, run_rows,
                                         avail, card,
                                         kExhaustiveMaxJoins);
      for (int idx : chosen) {
        const Step& cs = steps[static_cast<size_t>(idx)];
        card = ApplyJoinCard(cs.join_kind, card,
                             step_fanout[static_cast<size_t>(idx)],
                             step_right_rows[static_cast<size_t>(idx)]);
        avail.insert(cs.right_tables.begin(), cs.right_tables.end());
        order.push_back(idx);
      }
      i = j;
      continue;
    }
    // Barrier step: stays in place, still moves the cardinality forward.
    switch (s.kind) {
      case RelKind::kJoin:
        card = ApplyJoinCard(s.join_kind, card, step_fanout[i],
                             step_right_rows[i]);
        avail.insert(s.right_tables.begin(), s.right_tables.end());
        break;
      case RelKind::kSelect:
        card *= est.Selectivity(s.pred);
        break;
      default:
        break;  // λ/δ/↓ pass through
    }
    order.push_back(static_cast<int>(i));
    ++i;
  }

  bool identical = true;
  for (size_t k = 0; k < order.size(); ++k) {
    if (order[k] != static_cast<int>(k)) identical = false;
    const Step& s = steps[static_cast<size_t>(order[k])];
    if (s.kind != RelKind::kJoin) continue;
    if (!result.order.empty()) result.order += ",";
    result.order += s.right_table.empty() ? "(multi)" : s.right_table;
  }

  if (!identical) {
    RelExprPtr rebuilt = Rebuild(base, steps, order);
    // Validate the λ / left-deep invariants; any failure falls back.
    if (rebuilt != nullptr && ValidateLeftDeep(rebuilt) &&
        rebuilt->ReferencedTables() == static_expr->ReferencedTables()) {
      result.expr = rebuilt;
      result.reordered = true;
    } else {
      result.order.clear();
      result.expr = static_expr;
      result.reordered = false;
    }
  }

  Annotate(result.expr, &est, &result.node_est);
  if (stats_ != nullptr && stats_->catalog() != nullptr) {
    MarkProbeJoins(*stats_->catalog(), &est, &result);
  }
  return result;
}

std::vector<std::string> DeltaPlanner::OrderTablesByRows(
    const std::set<std::string>& tables) {
  std::vector<std::pair<double, std::string>> rows;
  rows.reserve(tables.size());
  for (const std::string& t : tables) {
    const TableStats* stats = stats_ != nullptr ? stats_->Get(t) : nullptr;
    double n = stats != nullptr ? static_cast<double>(stats->row_count)
                                : CardinalityEstimator::kUnknownTableRows;
    rows.emplace_back(n, t);
  }
  std::sort(rows.begin(), rows.end());
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (auto& [n, t] : rows) out.push_back(std::move(t));
  return out;
}

}  // namespace opt
}  // namespace ojv

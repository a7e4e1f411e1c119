#ifndef OJV_OPT_PLANNER_H_
#define OJV_OPT_PLANNER_H_

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "opt/cardinality.h"
#include "opt/plan_cache.h"

namespace ojv {
namespace opt {

/// Runs with at most this many join steps are ordered by exhaustive
/// (branch-and-bound) enumeration; longer runs fall back to greedy
/// min-output-cardinality.
inline constexpr int kExhaustiveMaxJoins = 6;

/// A cached plan is re-planned when the max per-step estimate/actual row
/// drift of its last run exceeds kReplanDrift, or when |Δ| moved more
/// than 2^kReplanDeltaLog2 from the |Δ| it was costed for.
inline constexpr double kReplanDrift = 4.0;
inline constexpr double kReplanDeltaLog2 = 3.0;

/// Weight of the newest observed fanout in the plan cache's EMA.
inline constexpr double kFanoutEmaAlpha = 0.5;

/// Picks the left-deep join order of a delta tree by estimated cost.
///
/// The static expression is decomposed into a base leaf plus a bottom-up
/// sequence of main-path steps (join / select / null-if / dedup /
/// subsume-remove). Only *joins* move, and only within maximal runs of
/// consecutive inner/left-outer join steps: the λ/δ/↓/σ fix-up operators
/// introduced by the §4.1 conversion are barriers that no join crosses,
/// which keeps every reordering semantically equal to the original (see
/// DESIGN.md §10 for the legality argument). Within a run, an order is
/// valid when each step's predicate only references tables already below
/// it; runs up to kExhaustiveMaxJoins are ordered exhaustively with
/// cost pruning, longer runs greedily. Cost is the sum of estimated
/// intermediate cardinalities (C_out).
///
/// Any decomposition or validation failure returns the static expression
/// unchanged (reordered=false), so planning can never produce a plan the
/// executor has not already been proven against.
class DeltaPlanner {
 public:
  explicit DeltaPlanner(StatsCatalog* stats) : stats_(stats) {}

  /// Plans `static_expr` (the ToLeftDeep output for updates of
  /// `delta_table`) for a pending delta of `delta_rows` rows.
  /// `fanout_ema` optionally injects observed per-right-table fanouts
  /// that override the ndv-based estimates.
  PlannedDelta Plan(
      const RelExprPtr& static_expr, const std::string& delta_table,
      double delta_rows,
      const std::unordered_map<std::string, double>* fanout_ema = nullptr);

  /// Orders `tables` by ascending estimated row count (deterministic:
  /// ties break by name). The secondary delta's §5.3 fragments join
  /// their residual parent tables in this order where conjuncts allow.
  std::vector<std::string> OrderTablesByRows(
      const std::set<std::string>& tables);

 private:
  StatsCatalog* stats_;
};

}  // namespace opt
}  // namespace ojv

#endif  // OJV_OPT_PLANNER_H_

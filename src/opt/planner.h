#ifndef OJV_OPT_PLANNER_H_
#define OJV_OPT_PLANNER_H_

#include <set>
#include <string>
#include <vector>

#include "opt/cardinality.h"
#include "opt/plan_cache.h"

namespace ojv {
namespace opt {

/// Runs with at most this many join steps are ordered by exhaustive
/// (branch-and-bound) enumeration; longer runs fall back to greedy
/// min-output-cardinality.
inline constexpr int kExhaustiveMaxJoins = 6;

/// A cached plan is re-planned when |Δ| moved more than
/// 2^kReplanDeltaLog2 from the |Δ| it was costed for.
inline constexpr double kReplanDeltaLog2 = 3.0;

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
///
/// After ordering, each main-path join step that can probe (ProbePath,
/// the rule the Evaluator runs by) is marked as a probe join when
/// est(left rows) × (1 + fanout) < est(rows of T): looking up each left
/// row's matches then reads fewer rows than building a hash table over
/// all of T. The choice is re-made whenever the plan is (a |Δ| shift of
/// 2^kReplanDeltaLog2).
class DeltaPlanner {
 public:
  explicit DeltaPlanner(StatsCatalog* stats) : stats_(stats) {}

  /// Plans `static_expr` (the ToLeftDeep output for updates of
  /// `delta_table`) for a pending delta of `delta_rows` rows.
  PlannedDelta Plan(const RelExprPtr& static_expr,
                    const std::string& delta_table, double delta_rows);

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

#ifndef OJV_OPT_FEEDBACK_H_
#define OJV_OPT_FEEDBACK_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "opt/plan_cache.h"

namespace ojv {
namespace opt {

/// One main-path join step's estimate vs. what actually ran.
struct StepFeedback {
  std::string right_table;
  double est_rows = 0;
  double actual_rows = 0;
  double actual_fanout = 0;  // rows out per left-input row (post floor)
};

struct FeedbackResult {
  std::vector<StepFeedback> steps;
  /// Max over matched join nodes of the estimate/actual row-count ratio
  /// (smoothed by +1 so empty results don't divide by zero). 1.0 = all
  /// estimates exact; compare against kReplanDrift (opt/planner.h).
  double max_drift = 1.0;
};

/// Harvests actual per-operator cardinalities for one evaluation of
/// `plan.expr` (LEO-style feedback). `rows_out` maps each node of the
/// plan that the evaluation reached to its output row count, as
/// Evaluator::set_row_counts records them. Join steps whose right
/// operand is a single base table yield an observed fanout keyed by that
/// table; everything else only contributes to drift.
FeedbackResult HarvestFeedback(
    const PlannedDelta& plan,
    const std::unordered_map<const RelExpr*, int64_t>& rows_out);

/// Folds observed fanouts into the plan-cache EMA:
/// ema = alpha * actual + (1 - alpha) * old (seeded with actual).
void UpdateFanoutEma(const FeedbackResult& feedback, double alpha,
                     std::unordered_map<std::string, double>* ema);

}  // namespace opt
}  // namespace ojv

#endif  // OJV_OPT_FEEDBACK_H_

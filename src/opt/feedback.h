#ifndef OJV_OPT_FEEDBACK_H_
#define OJV_OPT_FEEDBACK_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.h"
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
/// `plan.expr` from recorded trace events (LEO-style feedback). `events`
/// must be the events recorded during that evaluation, in record order;
/// non-exec events are ignored. The evaluator records exec spans in
/// post-order, so zipping a post-order walk of the plan against the
/// event sequence pairs each node with its span. Join steps whose right
/// operand is a single base table yield an observed fanout keyed by that
/// table; everything else only contributes to drift.
FeedbackResult HarvestFeedback(const PlannedDelta& plan,
                               const std::vector<obs::TraceEvent>& events);

/// Folds observed fanouts into the plan-cache EMA:
/// ema = alpha * actual + (1 - alpha) * old (seeded with actual).
void UpdateFanoutEma(const FeedbackResult& feedback, double alpha,
                     std::unordered_map<std::string, double>* ema);

}  // namespace opt
}  // namespace ojv

#endif  // OJV_OPT_FEEDBACK_H_

#include "opt/feedback.h"

#include <algorithm>

namespace ojv {
namespace opt {

namespace {

void Collect(const RelExprPtr& node, const PlannedDelta& plan,
             const std::unordered_map<const RelExpr*, int64_t>& rows_out,
             FeedbackResult* result) {
  if (node->kind() != RelKind::kJoin) {
    if (!node->children().empty()) {
      Collect(node->children()[0], plan, rows_out, result);
    }
    return;
  }
  // Main path first so steps come out bottom-up.
  Collect(node->left(), plan, rows_out, result);

  auto out_it = rows_out.find(node.get());
  if (out_it == rows_out.end()) return;
  double actual = static_cast<double>(out_it->second);

  auto est_it = plan.node_est.find(node.get());
  if (est_it != plan.node_est.end()) {
    double est = est_it->second;
    double drift = (std::max(est, actual) + 1.0) / (std::min(est, actual) + 1.0);
    result->max_drift = std::max(result->max_drift, drift);
  }

  std::set<std::string> right_tables = node->right()->ReferencedTables();
  if (right_tables.size() != 1) return;

  // Fanout is rows-out per *left-input* row. When the left child has no
  // count, defaulting its cardinality would overstate the fanout by the
  // missing row count and poison the EMA (a spurious drift re-plan at
  // the next maintenance), so the step is skipped entirely — no
  // observation beats a fabricated one.
  auto left_it = rows_out.find(node->left().get());
  if (left_it == rows_out.end()) return;
  double left_rows = static_cast<double>(left_it->second);

  StepFeedback step;
  step.right_table = *right_tables.begin();
  step.actual_rows = actual;
  step.actual_fanout = actual / std::max(left_rows, 1.0);
  if (est_it != plan.node_est.end()) step.est_rows = est_it->second;
  result->steps.push_back(std::move(step));
}

}  // namespace

FeedbackResult HarvestFeedback(
    const PlannedDelta& plan,
    const std::unordered_map<const RelExpr*, int64_t>& rows_out) {
  FeedbackResult result;
  if (plan.expr != nullptr) Collect(plan.expr, plan, rows_out, &result);
  return result;
}

void UpdateFanoutEma(const FeedbackResult& feedback, double alpha,
                     std::unordered_map<std::string, double>* ema) {
  for (const StepFeedback& step : feedback.steps) {
    auto it = ema->find(step.right_table);
    if (it == ema->end()) {
      (*ema)[step.right_table] = step.actual_fanout;
    } else {
      it->second = alpha * step.actual_fanout + (1.0 - alpha) * it->second;
    }
  }
}

}  // namespace opt
}  // namespace ojv

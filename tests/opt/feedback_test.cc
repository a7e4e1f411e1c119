// LEO-style feedback harvesting: full row counts yield per-step fanouts;
// partial counts (a missing left-child count) must not fabricate a
// fanout — the regression here is that a missing left count used to
// default left_rows to 1, overstating the fanout by orders of magnitude
// and poisoning the plan cache's EMA.

#include "opt/feedback.h"

#include <gtest/gtest.h>

#include "algebra/rel_expr.h"
#include "algebra/scalar_expr.h"

namespace ojv {
namespace opt {
namespace {

ScalarExprPtr JoinPred(const char* t1, const char* c1, const char* t2,
                       const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

using RowCounts = std::unordered_map<const RelExpr*, int64_t>;

/// ΔR ⋈ S ⋈ T, the left-deep main path the planner emits.
PlannedDelta MakePlan() {
  PlannedDelta plan;
  RelExprPtr join1 =
      RelExpr::Join(JoinKind::kLeftOuter, RelExpr::DeltaScan("R"),
                    RelExpr::Scan("S"), JoinPred("R", "a", "S", "a"));
  plan.expr = RelExpr::Join(JoinKind::kLeftOuter, join1, RelExpr::Scan("T"),
                            JoinPred("S", "b", "T", "b"));
  return plan;
}

/// Counts for ΔR(10) S(50) join1(20) T(5) join2(40); without_delta
/// leaves out ΔR's.
RowCounts Counts(const PlannedDelta& plan, bool without_delta = false) {
  const RelExprPtr& join2 = plan.expr;
  const RelExprPtr& join1 = join2->left();
  RowCounts counts = {{join1->right().get(), 50},
                      {join1.get(), 20},
                      {join2->right().get(), 5},
                      {join2.get(), 40}};
  if (!without_delta) counts[join1->left().get()] = 10;
  return counts;
}

TEST(FeedbackTest, FullCountsYieldBothFanouts) {
  PlannedDelta plan = MakePlan();
  FeedbackResult result = HarvestFeedback(plan, Counts(plan));
  ASSERT_EQ(result.steps.size(), 2u);
  EXPECT_EQ(result.steps[0].right_table, "S");
  EXPECT_DOUBLE_EQ(result.steps[0].actual_fanout, 20.0 / 10.0);
  EXPECT_EQ(result.steps[1].right_table, "T");
  EXPECT_DOUBLE_EQ(result.steps[1].actual_fanout, 40.0 / 20.0);
}

TEST(FeedbackTest, MissingLeftCountSkipsStepInsteadOfFabricatingFanout) {
  PlannedDelta plan = MakePlan();
  // Partial counts: the ΔR delta scan has none. join1's left child then
  // has no count; its step must be dropped, not computed against
  // left_rows=1 (which would claim fanout 20 instead of 2).
  FeedbackResult result =
      HarvestFeedback(plan, Counts(plan, /*without_delta=*/true));
  ASSERT_EQ(result.steps.size(), 1u);
  // join2's left (join1) still has its count, so T's step survives.
  EXPECT_EQ(result.steps[0].right_table, "T");
  EXPECT_DOUBLE_EQ(result.steps[0].actual_fanout, 40.0 / 20.0);
}

TEST(FeedbackTest, MissingLeftCountLeavesEmaUnperturbed) {
  PlannedDelta plan = MakePlan();
  std::unordered_map<std::string, double> ema = {{"S", 2.0}, {"T", 2.0}};
  FeedbackResult result =
      HarvestFeedback(plan, Counts(plan, /*without_delta=*/true));
  UpdateFanoutEma(result, /*alpha=*/0.5, &ema);

  // S saw no (fabricated) observation: its EMA is untouched. T folded
  // in the real fanout of 2.0.
  EXPECT_DOUBLE_EQ(ema["S"], 2.0);
  EXPECT_DOUBLE_EQ(ema["T"], 2.0);

  // The regression: before the fix, the partial counts produced an S
  // step with fanout = 20 (actual rows over a defaulted left of 1),
  // which at alpha=0.5 would have dragged the EMA to 11.
  for (const StepFeedback& step : result.steps) {
    EXPECT_NE(step.right_table, "S");
  }
}

TEST(FeedbackTest, EmptyCountsYieldNothing) {
  PlannedDelta plan = MakePlan();
  FeedbackResult result = HarvestFeedback(plan, {});
  EXPECT_TRUE(result.steps.empty());
  EXPECT_DOUBLE_EQ(result.max_drift, 1.0);
}

}  // namespace
}  // namespace opt
}  // namespace ojv

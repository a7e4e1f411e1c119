// Delta planner: cost-based reordering on skewed statistics, static
// fallback behavior, determinism, and secondary-chain table ordering.

#include "opt/planner.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "ivm/left_deep.h"
#include "ivm/maintainer.h"
#include "ivm/view_def.h"

namespace ojv {
namespace opt {
namespace {

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

/// D joins an expansive table B (fanout ~20) and a selective table S
/// (~2% match), B first in the definition — the skew bench's shape,
/// shrunk for tests.
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.CreateTable(
        "D",
        Schema({ColumnDef{"d_id", ValueType::kInt64, false},
                ColumnDef{"d_b", ValueType::kInt64, true},
                ColumnDef{"d_s", ValueType::kInt64, true}}),
        {"d_id"});
    catalog_.CreateTable(
        "B",
        Schema({ColumnDef{"b_id", ValueType::kInt64, false},
                ColumnDef{"b_seq", ValueType::kInt64, false}}),
        {"b_id", "b_seq"});
    catalog_.CreateTable(
        "S",
        Schema({ColumnDef{"s_id", ValueType::kInt64, false}}), {"s_id"});
    Table* d = catalog_.GetTable("D");
    for (int64_t i = 0; i < 1000; ++i) {
      d->Insert(Row{Value::Int64(i), Value::Int64(i % 20),
                    Value::Int64(i * 7 % 5000)});
    }
    Table* b = catalog_.GetTable("B");
    for (int64_t g = 0; g < 20; ++g) {
      for (int64_t s = 0; s < 20; ++s) {
        b->Insert(Row{Value::Int64(g), Value::Int64(s)});
      }
    }
    Table* t = catalog_.GetTable("S");
    for (int64_t i = 0; i < 100; ++i) {
      t->Insert(Row{Value::Int64(i * 50)});
    }
    stats_ = std::make_unique<StatsCatalog>(&catalog_);
  }

  RelExprPtr StaticDelta() {
    // The ToLeftDeep shape of ΔD ⋈ B ⋈ S with B first.
    RelExprPtr db =
        RelExpr::Join(JoinKind::kInner, RelExpr::DeltaScan("D"),
                      RelExpr::Scan("B"), Eq("D", "d_b", "B", "b_id"));
    return RelExpr::Join(JoinKind::kInner, db, RelExpr::Scan("S"),
                         Eq("D", "d_s", "S", "s_id"));
  }

  Catalog catalog_;
  std::unique_ptr<StatsCatalog> stats_;
};

TEST_F(PlannerTest, ReordersSelectiveJoinFirst) {
  DeltaPlanner planner(stats_.get());
  PlannedDelta plan = planner.Plan(StaticDelta(), "D", 100);
  EXPECT_TRUE(plan.reordered);
  EXPECT_EQ(plan.order, "S,B");
  EXPECT_TRUE(IsLeftDeep(plan.expr));
  // Per-node estimates annotate every node of the rebuilt tree.
  EXPECT_FALSE(plan.node_est.empty());
  EXPECT_GT(plan.node_est.at(plan.expr.get()), 0.0);
}

TEST_F(PlannerTest, PlanningIsDeterministic) {
  DeltaPlanner planner(stats_.get());
  PlannedDelta a = planner.Plan(StaticDelta(), "D", 100);
  PlannedDelta b = planner.Plan(StaticDelta(), "D", 100);
  EXPECT_EQ(a.order, b.order);
  EXPECT_EQ(a.expr->ToString(), b.expr->ToString());
}

TEST_F(PlannerTest, KeepsStaticOrderWhenAlreadyOptimal) {
  // Same tree with S first: the planner agrees and must return the
  // original expression pointer untouched (reordered = false).
  RelExprPtr ds =
      RelExpr::Join(JoinKind::kInner, RelExpr::DeltaScan("D"),
                    RelExpr::Scan("S"), Eq("D", "d_s", "S", "s_id"));
  RelExprPtr expr = RelExpr::Join(JoinKind::kInner, ds, RelExpr::Scan("B"),
                                  Eq("D", "d_b", "B", "b_id"));
  DeltaPlanner planner(stats_.get());
  PlannedDelta plan = planner.Plan(expr, "D", 100);
  EXPECT_FALSE(plan.reordered);
  EXPECT_EQ(plan.expr.get(), expr.get());
  EXPECT_EQ(plan.order, "S,B");
}

TEST_F(PlannerTest, PredicateDependencyConstrainsOrder) {
  // Chain D–B–S where the S predicate references B, not D: S can never
  // go below B, whatever the statistics say.
  RelExprPtr db =
      RelExpr::Join(JoinKind::kInner, RelExpr::DeltaScan("D"),
                    RelExpr::Scan("B"), Eq("D", "d_b", "B", "b_id"));
  RelExprPtr expr = RelExpr::Join(JoinKind::kInner, db, RelExpr::Scan("S"),
                                  Eq("B", "b_seq", "S", "s_id"));
  DeltaPlanner planner(stats_.get());
  PlannedDelta plan = planner.Plan(expr, "D", 100);
  EXPECT_EQ(plan.order, "B,S");
  EXPECT_FALSE(plan.reordered);
}

TEST_F(PlannerTest, OrderTablesByRowsAscendingWithNameTieBreak) {
  DeltaPlanner planner(stats_.get());
  std::vector<std::string> order =
      planner.OrderTablesByRows({"D", "B", "S"});
  // |S|=100 < |B|=400 < |D|=1000.
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "S");
  EXPECT_EQ(order[1], "B");
  EXPECT_EQ(order[2], "D");
}

}  // namespace
}  // namespace opt
}  // namespace ojv

// Cardinality estimator units: delta leaves, key/FK joins, selections,
// and the outer-join (null-extension) floor.

#include "opt/cardinality.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"

namespace ojv {
namespace opt {
namespace {

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

class CardinalityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // O: 1000 rows with unique o_id (the "one" side of an FK).
    catalog_.CreateTable(
        "O",
        Schema({ColumnDef{"o_id", ValueType::kInt64, false},
                ColumnDef{"o_a", ValueType::kInt64, true}}),
        {"o_id"});
    Table* o = catalog_.GetTable("O");
    for (int64_t i = 0; i < 1000; ++i) {
      o->Insert(Row{Value::Int64(i), Value::Int64(i % 20)});
    }
    // L: 5000 rows, l_o an FK-style reference into O (every o_id hit 5x).
    catalog_.CreateTable(
        "L",
        Schema({ColumnDef{"l_id", ValueType::kInt64, false},
                ColumnDef{"l_o", ValueType::kInt64, true}}),
        {"l_id"});
    Table* l = catalog_.GetTable("L");
    for (int64_t i = 0; i < 5000; ++i) {
      l->Insert(Row{Value::Int64(i), Value::Int64(i % 1000)});
    }
    // S: sparse dimension — 100 unique keys over a domain far larger
    // than what L references, so most probes miss.
    catalog_.CreateTable(
        "S",
        Schema({ColumnDef{"s_id", ValueType::kInt64, false}}), {"s_id"});
    Table* s = catalog_.GetTable("S");
    for (int64_t i = 0; i < 100; ++i) {
      s->Insert(Row{Value::Int64(i * 1000)});
    }
    stats_ = std::make_unique<StatsCatalog>(&catalog_);
  }

  Catalog catalog_;
  std::unique_ptr<StatsCatalog> stats_;
};

TEST_F(CardinalityTest, ScanAndDeltaScan) {
  CardinalityEstimator est(stats_.get());
  EXPECT_NEAR(est.Estimate(RelExpr::Scan("O")), 1000.0, 1.0);
  // Delta cardinality is exact — the statement's own rows.
  est.SetDeltaRows("L", 42);
  EXPECT_DOUBLE_EQ(est.Estimate(RelExpr::DeltaScan("L")), 42.0);
}

TEST_F(CardinalityTest, FkJoinHasUnitFanout) {
  // ΔL ⋈ O on l_o = o_id: every delta row matches exactly one O row, and
  // the ndv formula |O| / max(ndv(l_o), ndv(o_id)) = 1000/1000 sees it.
  CardinalityEstimator est(stats_.get());
  est.SetDeltaRows("L", 100);
  RelExprPtr join =
      RelExpr::Join(JoinKind::kInner, RelExpr::DeltaScan("L"),
                    RelExpr::Scan("O"), Eq("L", "l_o", "O", "o_id"));
  double card = est.Estimate(join);
  EXPECT_GT(card, 100.0 * 0.5);
  EXPECT_LT(card, 100.0 * 2.0);
}

TEST_F(CardinalityTest, SelectiveJoinShrinksOutput) {
  // ΔL ⋈ S on l_o = s_id: S has 100 keys spread over a much wider
  // domain, so per-row fanout is |S|/max(ndv(l_o), ndv(s_id)) = 0.1.
  CardinalityEstimator est(stats_.get());
  est.SetDeltaRows("L", 100);
  RelExprPtr join =
      RelExpr::Join(JoinKind::kInner, RelExpr::DeltaScan("L"),
                    RelExpr::Scan("S"), Eq("L", "l_o", "S", "s_id"));
  double card = est.Estimate(join);
  EXPECT_LT(card, 30.0);  // ≈ 10 expected, far below |Δ|
}

TEST_F(CardinalityTest, NullExtensionFloorsAtLeftInput) {
  // The same selective join as a left outer join: unmatched delta rows
  // survive null-extended, so the estimate floors at |Δ|.
  CardinalityEstimator est(stats_.get());
  est.SetDeltaRows("L", 100);
  RelExprPtr loj =
      RelExpr::Join(JoinKind::kLeftOuter, RelExpr::DeltaScan("L"),
                    RelExpr::Scan("S"), Eq("L", "l_o", "S", "s_id"));
  EXPECT_DOUBLE_EQ(est.Estimate(loj), 100.0);
}

TEST_F(CardinalityTest, EqLiteralSelectivityUsesNdv) {
  // σ_{o_a = 5}(O): o_a has 20 distinct values → about |O|/20 rows.
  CardinalityEstimator est(stats_.get());
  RelExprPtr sel = RelExpr::Select(
      RelExpr::Scan("O"),
      ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column("O", "o_a"),
                          ScalarExpr::Literal(Value::Int64(5))));
  double card = est.Estimate(sel);
  EXPECT_GT(card, 25.0);
  EXPECT_LT(card, 100.0);
}

TEST_F(CardinalityTest, RangePredicateInterpolates) {
  // o_id is uniform on [0, 999]; o_id < 100 should estimate ~10%.
  CardinalityEstimator est(stats_.get());
  RelExprPtr sel = RelExpr::Select(
      RelExpr::Scan("O"),
      ScalarExpr::Compare(CompareOp::kLt, ScalarExpr::Column("O", "o_id"),
                          ScalarExpr::Literal(Value::Int64(100))));
  double card = est.Estimate(sel);
  EXPECT_GT(card, 50.0);
  EXPECT_LT(card, 200.0);
}

TEST_F(CardinalityTest, UnknownTableUsesDefault) {
  CardinalityEstimator est(stats_.get());
  EXPECT_DOUBLE_EQ(est.Estimate(RelExpr::Scan("nope")), 1000.0);
}

}  // namespace
}  // namespace opt
}  // namespace ojv

// Operator-level semantics of the executor: the four join types with SQL
// NULL behavior, semijoin/antijoin, outer union, removal of subsumed
// tuples, minimum union, duplicate elimination, and the null-if operator.

#include "exec/evaluator.h"

#include <gtest/gtest.h>

namespace ojv {
namespace {

class OperatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.CreateTable(
        "L",
        Schema({ColumnDef{"lid", ValueType::kInt64, false},
                ColumnDef{"lk", ValueType::kInt64, true}}),
        {"lid"});
    catalog_.CreateTable(
        "R",
        Schema({ColumnDef{"rid", ValueType::kInt64, false},
                ColumnDef{"rk", ValueType::kInt64, true}}),
        {"rid"});
    Table* l = catalog_.GetTable("L");
    // lid 1 matches two R rows; lid 2 matches none; lid 3 has NULL key.
    l->Insert(Row{Value::Int64(1), Value::Int64(10)});
    l->Insert(Row{Value::Int64(2), Value::Int64(20)});
    l->Insert(Row{Value::Int64(3), Value::Null()});
    Table* r = catalog_.GetTable("R");
    r->Insert(Row{Value::Int64(101), Value::Int64(10)});
    r->Insert(Row{Value::Int64(102), Value::Int64(10)});
    r->Insert(Row{Value::Int64(103), Value::Int64(30)});
    r->Insert(Row{Value::Int64(104), Value::Null()});
  }

  RelExprPtr JoinExpr(JoinKind kind) {
    return RelExpr::Join(kind, RelExpr::Scan("L"), RelExpr::Scan("R"),
                         ScalarExpr::ColumnsEqual({"L", "lk"}, {"R", "rk"}));
  }

  Relation Eval(const RelExprPtr& e) {
    Evaluator evaluator(&catalog_);
    return evaluator.EvalToRelation(e);
  }

  Catalog catalog_;
};

TEST_F(OperatorTest, InnerJoinSkipsNullKeys) {
  Relation out = Eval(JoinExpr(JoinKind::kInner));
  EXPECT_EQ(out.size(), 2);  // lid 1 x {101, 102}
  for (const Row& row : out.rows()) {
    EXPECT_EQ(row[0], Value::Int64(1));
  }
}

TEST_F(OperatorTest, LeftOuterJoinPreservesUnmatchedAndNullKeyRows) {
  Relation out = Eval(JoinExpr(JoinKind::kLeftOuter));
  EXPECT_EQ(out.size(), 4);  // 2 matches + lid 2 + lid 3 null-extended
  int null_extended = 0;
  for (const Row& row : out.rows()) {
    if (row[2].is_null()) ++null_extended;
  }
  EXPECT_EQ(null_extended, 2);
}

TEST_F(OperatorTest, RightOuterJoinPreservesRightSide) {
  Relation out = Eval(JoinExpr(JoinKind::kRightOuter));
  EXPECT_EQ(out.size(), 4);  // 2 matches + rid 103 + rid 104
  int unmatched = 0;
  for (const Row& row : out.rows()) {
    if (row[0].is_null()) ++unmatched;
  }
  EXPECT_EQ(unmatched, 2);
}

TEST_F(OperatorTest, FullOuterJoinPreservesBothSides) {
  Relation out = Eval(JoinExpr(JoinKind::kFullOuter));
  EXPECT_EQ(out.size(), 6);  // 2 matches + 2 left-only + 2 right-only
}

TEST_F(OperatorTest, SemiAndAntiJoin) {
  Relation semi = Eval(JoinExpr(JoinKind::kLeftSemi));
  EXPECT_EQ(semi.size(), 1);
  EXPECT_EQ(semi.row(0)[0], Value::Int64(1));
  EXPECT_EQ(semi.schema().num_columns(), 2);  // left columns only

  Relation anti = Eval(JoinExpr(JoinKind::kLeftAnti));
  EXPECT_EQ(anti.size(), 2);  // lid 2 and lid 3 (NULL never matches)
}

TEST_F(OperatorTest, NonEquiJoinFallsBackToNestedLoop) {
  RelExprPtr expr = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("L"), RelExpr::Scan("R"),
      ScalarExpr::Compare(CompareOp::kLt, ScalarExpr::Column("L", "lk"),
                          ScalarExpr::Column("R", "rk")));
  Relation out = Eval(expr);
  // lk=10 < rk=30: lid 1; lk=20 < 30: lid 2; NULLs never qualify.
  EXPECT_EQ(out.size(), 2);
}

TEST_F(OperatorTest, SelectWithThreeValuedLogic) {
  // lk > 15 is unknown for the NULL row and false for lk=10.
  RelExprPtr expr = RelExpr::Select(
      RelExpr::Scan("L"),
      ScalarExpr::Compare(CompareOp::kGt, ScalarExpr::Column("L", "lk"),
                          ScalarExpr::Literal(Value::Int64(15))));
  Relation out = Eval(expr);
  EXPECT_EQ(out.size(), 1);
  EXPECT_EQ(out.row(0)[0], Value::Int64(2));
}

TEST_F(OperatorTest, IsNullPredicate) {
  RelExprPtr expr = RelExpr::Select(
      RelExpr::Scan("L"),
      ScalarExpr::IsNull(ScalarExpr::Column("L", "lk")));
  EXPECT_EQ(Eval(expr).size(), 1);
}

TEST_F(OperatorTest, ProjectKeepsTagsAndKeyInfo) {
  RelExprPtr expr = RelExpr::Project(
      RelExpr::Scan("L"), {ColumnRef{"L", "lid"}});
  Relation out = Eval(expr);
  EXPECT_EQ(out.schema().num_columns(), 1);
  EXPECT_TRUE(out.schema().HasFullKey("L"));

  // Projecting away the key loses key knowledge but keeps tags.
  RelExprPtr no_key = RelExpr::Project(
      RelExpr::Scan("L"), {ColumnRef{"L", "lk"}});
  Relation out2 = Eval(no_key);
  EXPECT_FALSE(out2.schema().HasFullKey("L"));
  EXPECT_TRUE(out2.schema().HasTable("L"));
}

TEST_F(OperatorTest, OuterUnionAlignsByTaggedColumns) {
  Relation out = Eval(RelExpr::OuterUnion(RelExpr::Scan("L"),
                                          RelExpr::Scan("R")));
  EXPECT_EQ(out.size(), 7);
  EXPECT_EQ(out.schema().num_columns(), 4);
  // L rows are null-extended on R's columns and vice versa.
  for (const Row& row : out.rows()) {
    EXPECT_TRUE(row[0].is_null() || row[2].is_null());
  }
}

TEST_F(OperatorTest, DedupRemovesExactDuplicatesOnly) {
  Relation in(Evaluator::SchemaFor(*catalog_.GetTable("L")));
  in.Add(Row{Value::Int64(1), Value::Int64(10)});
  in.Add(Row{Value::Int64(1), Value::Int64(10)});
  in.Add(Row{Value::Int64(1), Value::Null()});
  Relation out = Evaluator::DedupRows(std::move(in));
  EXPECT_EQ(out.size(), 2);
}

TEST_F(OperatorTest, RemoveSubsumedDropsNullExtendedDuplicates) {
  // Combined L+R schema with a subsumed row: (1,10,NULL,NULL) is
  // subsumed by (1,10,101,10).
  Relation joined = Eval(JoinExpr(JoinKind::kLeftOuter));
  Relation extra(joined.schema());
  for (const Row& row : joined.rows()) extra.Add(row);
  extra.Add(Row{Value::Int64(1), Value::Int64(10), Value::Null(),
                Value::Null()});
  int64_t before = extra.size();
  Relation out = Evaluator::RemoveSubsumed(std::move(extra));
  EXPECT_EQ(out.size(), before - 1);
}

TEST_F(OperatorTest, RemoveSubsumedRequiresAgreementOnSharedColumns) {
  Relation in(Eval(JoinExpr(JoinKind::kLeftOuter)).schema());
  in.Add(Row{Value::Int64(1), Value::Int64(10), Value::Null(), Value::Null()});
  in.Add(Row{Value::Int64(2), Value::Int64(20), Value::Int64(103),
             Value::Int64(30)});
  // Different lid: no subsumption.
  Relation out = Evaluator::RemoveSubsumed(std::move(in));
  EXPECT_EQ(out.size(), 2);
}

TEST_F(OperatorTest, MinUnionIsOuterUnionPlusSubsumptionRemoval) {
  // L ⊕ (L join R): the joined rows subsume their L-only counterparts.
  RelExprPtr expr =
      RelExpr::MinUnion(RelExpr::Scan("L"), JoinExpr(JoinKind::kInner));
  Relation out = Eval(expr);
  // L-only rows for lid 2 and 3 survive; lid 1 appears only joined.
  EXPECT_EQ(out.size(), 4);
  for (const Row& row : out.rows()) {
    if (row[0] == Value::Int64(1)) {
      EXPECT_FALSE(row[2].is_null());
    }
  }
}

TEST_F(OperatorTest, NullIfNullsTablesWhenPredicateNotTrue) {
  // Null out R's columns unless rk = 10; unknown (NULL rk) also nulls.
  RelExprPtr expr = RelExpr::NullIf(
      JoinExpr(JoinKind::kFullOuter), {"R"},
      ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column("R", "rk"),
                          ScalarExpr::Literal(Value::Int64(10))));
  Relation out = Eval(expr);
  for (const Row& row : out.rows()) {
    if (!row[3].is_null()) {
      EXPECT_EQ(row[3], Value::Int64(10));
    } else {
      EXPECT_TRUE(row[2].is_null());  // rid nulled together with rk
    }
  }
}

TEST_F(OperatorTest, DeltaScanBindsNamedRelations) {
  Relation delta(Evaluator::SchemaFor(*catalog_.GetTable("L")));
  delta.Add(Row{Value::Int64(99), Value::Int64(10)});
  Evaluator evaluator(&catalog_);
  evaluator.BindDelta("L", &delta);
  Relation out = evaluator.EvalToRelation(RelExpr::Join(
      JoinKind::kInner, RelExpr::DeltaScan("L"), RelExpr::Scan("R"),
      ScalarExpr::ColumnsEqual({"L", "lk"}, {"R", "rk"})));
  EXPECT_EQ(out.size(), 2);
  for (const Row& row : out.rows()) {
    EXPECT_EQ(row[0], Value::Int64(99));
  }
}

TEST_F(OperatorTest, TableOverrideSubstitutesState) {
  Relation old_state(Evaluator::SchemaFor(*catalog_.GetTable("R")));
  old_state.Add(Row{Value::Int64(500), Value::Int64(10)});
  Evaluator evaluator(&catalog_);
  evaluator.OverrideTable("R", &old_state);
  Relation out = evaluator.EvalToRelation(JoinExpr(JoinKind::kInner));
  EXPECT_EQ(out.size(), 1);
  EXPECT_EQ(out.row(0)[2], Value::Int64(500));
}

// Project(Scan(T)) runs fused: it copies only the projected cells of
// T's live rows, or of T's override. It must produce what a Project over
// the full-width rows produces; the reference binds those rows as a
// delta, which the evaluator never fuses.
class FusedProjectScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Table* w = catalog_.CreateTable(
        "W",
        Schema({ColumnDef{"w_a", ValueType::kInt64, true},
                ColumnDef{"w_id1", ValueType::kInt64, false},
                ColumnDef{"w_b", ValueType::kString, true},
                ColumnDef{"w_id2", ValueType::kInt64, false}}),
        {"w_id1", "w_id2"});
    for (int64_t i = 0; i < 6; ++i) {
      w->Insert(Row{i % 2 == 0 ? Value::Int64(i * 10) : Value::Null(),
                    Value::Int64(i / 2), Value::String("b" + std::to_string(i)),
                    Value::Int64(i % 2)});
    }
    // A dead slot: the fused scan must visit live rows only.
    ASSERT_TRUE(w->DeleteByKey(Row{Value::Int64(1), Value::Int64(0)},
                               nullptr));
  }

  // Project(`columns`) over Scan(W) and over a DeltaScan bound to
  // `rows`, which must hold W's rows as the scan sees them.
  void ExpectFusedMatches(const std::vector<ColumnRef>& columns,
                          const Evaluator& evaluator,
                          const Relation& rows) {
    Relation fused =
        evaluator.EvalToRelation(RelExpr::Project(RelExpr::Scan("W"), columns));
    Evaluator reference(&catalog_);
    reference.BindDelta("W", &rows);
    Relation unfused = reference.EvalToRelation(
        RelExpr::Project(RelExpr::DeltaScan("W"), columns));
    ASSERT_EQ(fused.schema().num_columns(), unfused.schema().num_columns());
    for (int i = 0; i < fused.schema().num_columns(); ++i) {
      const BoundColumn& a = fused.schema().column(i);
      const BoundColumn& b = unfused.schema().column(i);
      EXPECT_EQ(a.ToString(), b.ToString());
      EXPECT_EQ(a.type, b.type);
      EXPECT_EQ(a.key_ordinal, b.key_ordinal);
    }
    EXPECT_EQ(fused.schema().KeyPositions("W"),
              unfused.schema().KeyPositions("W"));
    EXPECT_EQ(fused.schema().HasFullKey("W"),
              unfused.schema().HasFullKey("W"));
    std::string diff;
    EXPECT_TRUE(SameBag(unfused, fused, &diff)) << diff;
  }

  Catalog catalog_;
};

TEST_F(FusedProjectScanTest, MatchesProjectOverTheMaterializedScan) {
  const Relation rows = Evaluator::RelationFrom(*catalog_.GetTable("W"));
  ASSERT_EQ(rows.size(), 5);
  Evaluator evaluator(&catalog_);
  // Key columns out of table order, a non-key column dropped.
  ExpectFusedMatches({{"W", "w_id2"}, {"W", "w_b"}, {"W", "w_id1"}},
                     evaluator, rows);
  // Half the key projected away.
  ExpectFusedMatches({{"W", "w_a"}, {"W", "w_id1"}}, evaluator, rows);
  Relation fused = evaluator.EvalToRelation(RelExpr::Project(
      RelExpr::Scan("W"), {{"W", "w_id2"}, {"W", "w_b"}, {"W", "w_id1"}}));
  EXPECT_EQ(fused.schema().KeyPositions("W"), (std::vector<int>{2, 0}));
  EXPECT_TRUE(fused.schema().HasFullKey("W"));
}

TEST_F(FusedProjectScanTest, ProjectsFromAnOverriddenTable) {
  Relation old_state(Evaluator::SchemaFor(*catalog_.GetTable("W")));
  old_state.Add(Row{Value::Int64(7), Value::Int64(40), Value::String("x"),
                    Value::Int64(1)});
  old_state.Add(Row{Value::Null(), Value::Int64(41), Value::Null(),
                    Value::Int64(0)});
  Evaluator evaluator(&catalog_);
  evaluator.OverrideTable("W", &old_state);
  ExpectFusedMatches({{"W", "w_b"}, {"W", "w_id1"}, {"W", "w_id2"}},
                     evaluator, old_state);
}

// The fused scan records its own span before the project's, as a
// post-order walk of Project(Scan(W)) would, with the rows it read.
TEST_F(FusedProjectScanTest, TraceRecordsTheScanThenTheProject) {
  obs::TraceContext trace;
  Evaluator evaluator(&catalog_);
  evaluator.set_trace(&trace);
  evaluator.Eval(RelExpr::Project(RelExpr::Scan("W"), {{"W", "w_id1"}}));
  std::vector<obs::TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "exec.scan");
  EXPECT_EQ(*events[0].StrArg("table"), "W");
  EXPECT_EQ(events[0].ArgOr("rows_out", -1), 5);
  EXPECT_EQ(events[1].name, "exec.project");
  EXPECT_EQ(events[1].ArgOr("rows_in", -1), 5);
  EXPECT_EQ(events[1].ArgOr("rows_out", -1), 5);
}

}  // namespace
}  // namespace ojv

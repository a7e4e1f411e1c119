// The probe join (index nested loop) against the hash join: for inner,
// left outer, semi and anti joins, a join marked as a probe must give
// the same bag as the hash join over the same inputs. Cases cover NULL
// keys on both sides, duplicate right keys, a right-side selection, a
// residual, a unique-key lookup, an FK-index lookup with an extra
// equality conjunct, an empty left input, and the fallback to a hash
// join when no index covers the predicate. ProbePath, the one rule by
// which the planner marks and the evaluator runs probe joins, is checked
// on its own.

#include <gtest/gtest.h>

#include "exec/evaluator.h"
#include "obs/trace.h"

namespace ojv {
namespace {

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::ColumnsEqual({t1, c1}, {t2, c2});
}

Value IntOrNull(int64_t v) { return v < 0 ? Value::Null() : Value::Int64(v); }

constexpr JoinKind kProbeKinds[] = {JoinKind::kInner, JoinKind::kLeftOuter,
                                    JoinKind::kLeftSemi, JoinKind::kLeftAnti};

class ProbeJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.CreateTable(
        "P", Schema({ColumnDef{"p_id", ValueType::kInt64, false}}), {"p_id"});
    catalog_.CreateTable(
        "R",
        Schema({ColumnDef{"r_id", ValueType::kInt64, false},
                ColumnDef{"r_k", ValueType::kInt64, true},
                ColumnDef{"r_m", ValueType::kInt64, true},
                ColumnDef{"r_v", ValueType::kInt64, true}}),
        {"r_id"});
    catalog_.CreateTable(
        "L",
        Schema({ColumnDef{"l_id", ValueType::kInt64, false},
                ColumnDef{"l_k", ValueType::kInt64, true},
                ColumnDef{"l_m", ValueType::kInt64, true},
                ColumnDef{"l_v", ValueType::kInt64, true},
                ColumnDef{"l_rid", ValueType::kInt64, true}}),
        {"l_id"});
    for (int64_t p = 0; p < 5; ++p) {
      catalog_.GetTable("P")->Insert(Row{Value::Int64(p)});
    }
    // r_k: duplicates (1 three times, 2 twice), NULLs, and a parent (4)
    // no row references. -1 stands for NULL.
    const int64_t r_rows[][4] = {{10, 1, 7, 1},  {11, 1, 8, 5},
                                 {12, 1, 7, 9},  {13, 2, -1, 3},
                                 {14, 2, 8, -1}, {15, -1, 7, 4},
                                 {16, 3, 7, 2},  {17, -1, -1, 6}};
    Table* r = catalog_.GetTable("R");
    for (const auto& v : r_rows) {
      r->Insert(Row{Value::Int64(v[0]), IntOrNull(v[1]), IntOrNull(v[2]),
                    IntOrNull(v[3])});
    }
    // Churn R so the FK index (declared below, over existing rows) also
    // holds stale entries and a reused slot.
    r->DeleteByKey(Row{Value::Int64(16)}, nullptr);
    r->Insert(Row{Value::Int64(18), Value::Int64(3), Value::Int64(8),
                  Value::Int64(7)});
    catalog_.AddForeignKey({"R", {"r_k"}, "P", {"p_id"}});

    // Left rows: duplicate keys, NULL keys, unmatched keys, and l_rid
    // for unique-key lookups.
    const int64_t l_rows[][5] = {{1, 1, 7, 4, 10},  {2, 1, 8, 0, 11},
                                 {3, 2, 8, 9, 13},  {4, -1, 7, 5, -1},
                                 {5, 4, 7, 5, 99},  {6, 3, -1, 1, 18},
                                 {7, 1, 7, 4, 12},  {8, 9, 8, 2, 16}};
    delta_ = Relation(Evaluator::SchemaFor(*catalog_.GetTable("L")));
    for (const auto& v : l_rows) {
      delta_.Add(Row{Value::Int64(v[0]), IntOrNull(v[1]), IntOrNull(v[2]),
                     IntOrNull(v[3]), IntOrNull(v[4])});
    }
  }

  // Evaluates `join` over the bound left input, probing when `probe`;
  // *algo receives the join span's algorithm.
  Relation Eval(const RelExprPtr& join, bool probe, std::string* algo) {
    obs::TraceContext trace;
    Evaluator evaluator(&catalog_);
    evaluator.BindDelta("L", &delta_);
    evaluator.set_trace(&trace);
    const std::unordered_set<const RelExpr*> marks = {join.get()};
    if (probe) evaluator.set_probe_joins(&marks);
    Relation out = evaluator.EvalToRelation(join);
    for (const obs::TraceEvent& ev : trace.Snapshot()) {
      if (ev.name == "exec.join") *algo = *ev.StrArg("algo");
    }
    return out;
  }

  // Every probe kind gives the hash join's bag, through the probe path
  // when `expect_index`.
  void ExpectSameAsHash(const RelExprPtr& right, const ScalarExprPtr& pred,
                        bool expect_index = true) {
    for (JoinKind kind : kProbeKinds) {
      RelExprPtr join =
          RelExpr::Join(kind, RelExpr::DeltaScan("L"), right, pred);
      std::string hash_algo;
      std::string probe_algo;
      Relation hashed = Eval(join, /*probe=*/false, &hash_algo);
      Relation probed = Eval(join, /*probe=*/true, &probe_algo);
      EXPECT_EQ(hash_algo, "hash");
      EXPECT_EQ(probe_algo, expect_index ? "index" : "hash")
          << JoinKindName(kind);
      EXPECT_TRUE(probed.Equals(hashed))
          << JoinKindName(kind) << "\nprobe:\n"
          << probed.ToString(true) << "hash:\n"
          << hashed.ToString(true);
    }
  }

  Catalog catalog_;
  Relation delta_;
};

TEST_F(ProbeJoinTest, ForeignKeyIndexWithNullAndDuplicateKeys) {
  ExpectSameAsHash(RelExpr::Scan("R"), Eq("L", "l_k", "R", "r_k"));
}

TEST_F(ProbeJoinTest, ForeignKeyIndexWithAnExtraEqualityConjunct) {
  ExpectSameAsHash(RelExpr::Scan("R"),
                   ScalarExpr::And({Eq("L", "l_k", "R", "r_k"),
                                    Eq("R", "r_m", "L", "l_m")}));
}

TEST_F(ProbeJoinTest, UniqueKeyLookup) {
  ExpectSameAsHash(RelExpr::Scan("R"), Eq("L", "l_rid", "R", "r_id"));
}

TEST_F(ProbeJoinTest, Residual) {
  ExpectSameAsHash(
      RelExpr::Scan("R"),
      ScalarExpr::And({Eq("L", "l_k", "R", "r_k"),
                       ScalarExpr::Compare(CompareOp::kLt,
                                           ScalarExpr::Column("L", "l_v"),
                                           ScalarExpr::Column("R", "r_v"))}));
}

TEST_F(ProbeJoinTest, RightSideSelection) {
  ExpectSameAsHash(
      RelExpr::Select(RelExpr::Scan("R"),
                      ScalarExpr::Compare(
                          CompareOp::kGe, ScalarExpr::Column("R", "r_v"),
                          ScalarExpr::Literal(Value::Int64(3)))),
      Eq("L", "l_k", "R", "r_k"));
}

TEST_F(ProbeJoinTest, EmptyLeftInput) {
  delta_.mutable_rows()->clear();
  ExpectSameAsHash(RelExpr::Scan("R"), Eq("L", "l_k", "R", "r_k"));
}

TEST_F(ProbeJoinTest, UncoveredPredicateFallsBackToTheHashJoin) {
  ExpectSameAsHash(RelExpr::Scan("R"), Eq("L", "l_m", "R", "r_m"),
                   /*expect_index=*/false);
}

TEST_F(ProbeJoinTest, ProbePathAcceptsOnlyCoveredLookupsFromTheLeft) {
  auto path = [&](JoinKind kind, const RelExprPtr& left,
                  const RelExprPtr& right, const ScalarExprPtr& pred) {
    return ProbePath(*RelExpr::Join(kind, left, right, pred), catalog_);
  };
  const RelExprPtr l = RelExpr::DeltaScan("L");
  const RelExprPtr r = RelExpr::Scan("R");
  const int fk_index = catalog_.GetTable("R")->FindIndex({1});
  ASSERT_NE(fk_index, Table::kNoPath);
  EXPECT_EQ(path(JoinKind::kInner, l, r, Eq("L", "l_k", "R", "r_k")),
            fk_index);
  EXPECT_EQ(path(JoinKind::kLeftAnti, l, r, Eq("R", "r_id", "L", "l_rid")),
            Table::kUniqueKeyPath);
  EXPECT_EQ(path(JoinKind::kLeftSemi, l,
                 RelExpr::Select(r, ScalarExpr::Compare(
                                        CompareOp::kGe,
                                        ScalarExpr::Column("R", "r_v"),
                                        ScalarExpr::Literal(Value::Int64(3)))),
                 Eq("L", "l_k", "R", "r_k")),
            fk_index);
  // No index on r_m.
  EXPECT_EQ(path(JoinKind::kInner, l, r, Eq("L", "l_m", "R", "r_m")),
            Table::kNoPath);
  // Right and full outer joins keep every right row: never probed.
  EXPECT_EQ(path(JoinKind::kRightOuter, l, r, Eq("L", "l_k", "R", "r_k")),
            Table::kNoPath);
  EXPECT_EQ(path(JoinKind::kFullOuter, l, r, Eq("L", "l_k", "R", "r_k")),
            Table::kNoPath);
  // The lookup value must come from the left input: P is not below it.
  EXPECT_EQ(path(JoinKind::kInner, l, r, Eq("P", "p_id", "R", "r_k")),
            Table::kNoPath);
  // The right input must be a (selected) base-table scan.
  EXPECT_EQ(path(JoinKind::kInner, l,
                 RelExpr::Join(JoinKind::kInner, r, RelExpr::Scan("P"),
                               Eq("R", "r_k", "P", "p_id")),
                 Eq("L", "l_k", "R", "r_k")),
            Table::kNoPath);
}

// The trace keeps one span per plan node in post-order, so EXPLAIN's zip
// and the exec.* counters see the probe's right side as fetched rows.
TEST_F(ProbeJoinTest, TraceRecordsTheRightSideNodes) {
  RelExprPtr join = RelExpr::Join(
      JoinKind::kLeftOuter, RelExpr::DeltaScan("L"),
      RelExpr::Select(RelExpr::Scan("R"),
                      ScalarExpr::Compare(
                          CompareOp::kGe, ScalarExpr::Column("R", "r_v"),
                          ScalarExpr::Literal(Value::Int64(3)))),
      Eq("L", "l_k", "R", "r_k"));
  obs::TraceContext trace;
  Evaluator evaluator(&catalog_);
  evaluator.BindDelta("L", &delta_);
  evaluator.set_trace(&trace);
  const std::unordered_set<const RelExpr*> marks = {join.get()};
  evaluator.set_probe_joins(&marks);
  evaluator.Eval(join);
  std::vector<obs::TraceEvent> events = trace.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, "exec.delta_scan");
  EXPECT_EQ(events[1].name, "exec.scan");
  EXPECT_EQ(*events[1].StrArg("table"), "R");
  // l_k 1 (x3 rows) fetches 3 R rows each, 2 fetches 2, 3 fetches 1;
  // NULL and unmatched keys fetch nothing: 3 + 3 + 2 + 1 + 3 = 12.
  EXPECT_EQ(events[1].ArgOr("rows_out", -1), 12);
  EXPECT_EQ(events[2].name, "exec.select");
  EXPECT_EQ(events[2].ArgOr("rows_in", -1), 12);
  EXPECT_EQ(events[3].name, "exec.join");
  EXPECT_EQ(*events[3].StrArg("algo"), "index");
  EXPECT_EQ(events[3].ArgOr("build_rows", -1), 0);
  EXPECT_EQ(events[3].ArgOr("probe_rows", -1), 8);
}

// Semi and anti joins settle a row at its first match, in both
// operators: one left row with three matching right rows is one hit.
TEST_F(ProbeJoinTest, SemiAndAntiStopAtTheFirstMatch) {
  delta_.mutable_rows()->resize(1);  // l_k 1: three R rows match
  for (JoinKind kind : {JoinKind::kLeftSemi, JoinKind::kLeftAnti}) {
    for (bool probe : {false, true}) {
      RelExprPtr join = RelExpr::Join(kind, RelExpr::DeltaScan("L"),
                                      RelExpr::Scan("R"),
                                      Eq("L", "l_k", "R", "r_k"));
      obs::TraceContext trace;
      Evaluator evaluator(&catalog_);
      evaluator.BindDelta("L", &delta_);
      evaluator.set_trace(&trace);
      const std::unordered_set<const RelExpr*> marks = {join.get()};
      if (probe) evaluator.set_probe_joins(&marks);
      Relation out = evaluator.EvalToRelation(join);
      EXPECT_EQ(out.size(), kind == JoinKind::kLeftSemi ? 1 : 0);
      std::vector<obs::TraceEvent> events = trace.Snapshot();
      ASSERT_FALSE(events.empty());
      EXPECT_EQ(events.back().ArgOr("probe_hits", -1), 1)
          << JoinKindName(kind) << (probe ? " probe" : " hash");
    }
  }
}

}  // namespace
}  // namespace ojv

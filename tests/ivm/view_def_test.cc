// ViewDef validation: the paper's §2 restrictions are enforced at view
// creation time with clear failures.

#include "ivm/view_def.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "baseline/recompute.h"
#include "ivm/aggregate_view.h"
#include "ivm/maintainer.h"
#include "sql/parser.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_schema.h"
#include "tpch/views.h"

namespace ojv {
namespace {

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

class ViewDefTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateRstuSchema(&catalog_);
  }

  std::vector<ColumnRef> FullOutput(std::vector<std::string> tables) {
    std::vector<ColumnRef> out;
    for (const std::string& t : tables) {
      std::string p(1, static_cast<char>(std::tolower(t[0])));
      for (const char* suffix : {"_id", "_a", "_b", "_v"}) {
        out.push_back(ColumnRef{t, p + suffix});
      }
    }
    return out;
  }

  Catalog catalog_;
};

TEST_F(ViewDefTest, ValidViewCollectsMetadata) {
  RelExprPtr tree = RelExpr::Join(JoinKind::kFullOuter, RelExpr::Scan("R"),
                                  RelExpr::Scan("S"),
                                  Eq("R", "r_a", "S", "s_a"));
  ViewDef view("v", tree, FullOutput({"R", "S"}), catalog_);
  EXPECT_EQ(view.tables(), (std::set<std::string>{"R", "S"}));
  EXPECT_EQ(view.conjuncts().size(), 1u);
  EXPECT_TRUE(view.output_schema().HasFullKey("R"));
  EXPECT_TRUE(view.output_schema().HasFullKey("S"));
}

TEST_F(ViewDefTest, CoreViewReplacesOuterJoins) {
  RelExprPtr tree = RelExpr::Join(JoinKind::kFullOuter, RelExpr::Scan("R"),
                                  RelExpr::Scan("S"),
                                  Eq("R", "r_a", "S", "s_a"));
  ViewDef view("v", tree, FullOutput({"R", "S"}), catalog_);
  ViewDef core = view.CoreView(catalog_);
  EXPECT_EQ(core.tree()->ToString(), "(R join S)");
  EXPECT_EQ(core.name(), "v_core");
}

using ViewDefDeathTest = ViewDefTest;

TEST_F(ViewDefDeathTest, RejectsSelfJoins) {
  RelExprPtr tree = RelExpr::Join(JoinKind::kInner, RelExpr::Scan("R"),
                                  RelExpr::Scan("R"),
                                  Eq("R", "r_a", "R", "r_b"));
  EXPECT_DEATH(ViewDef("v", tree, FullOutput({"R"}), catalog_),
               "references a table twice");
}

TEST_F(ViewDefDeathTest, RejectsNonNullRejectingPredicates) {
  // IS NULL predicates are not null-rejecting (§2).
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kLeftOuter, RelExpr::Scan("R"), RelExpr::Scan("S"),
      ScalarExpr::Or({Eq("R", "r_a", "S", "s_a"),
                      ScalarExpr::IsNull(ScalarExpr::Column("S", "s_a"))}));
  EXPECT_DEATH(ViewDef("v", tree, FullOutput({"R", "S"}), catalog_),
               "null-rejecting");
}

TEST_F(ViewDefDeathTest, RejectsDisconnectedJoinPredicates) {
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("R"), RelExpr::Scan("S"),
      ScalarExpr::Compare(CompareOp::kGt, ScalarExpr::Column("R", "r_a"),
                          ScalarExpr::Literal(Value::Int64(0))));
  EXPECT_DEATH(ViewDef("v", tree, FullOutput({"R", "S"}), catalog_),
               "connect both inputs");
}

TEST_F(ViewDefDeathTest, RejectsOutputMissingKeys) {
  RelExprPtr tree = RelExpr::Join(JoinKind::kInner, RelExpr::Scan("R"),
                                  RelExpr::Scan("S"),
                                  Eq("R", "r_a", "S", "s_a"));
  std::vector<ColumnRef> output = {{"R", "r_id"}, {"S", "s_a"}};  // no s_id
  EXPECT_DEATH(ViewDef("v", tree, output, catalog_),
               "unique key");
}

TEST_F(ViewDefDeathTest, RejectsPredicatesOverThreeTables) {
  RelExprPtr rs = RelExpr::Join(JoinKind::kInner, RelExpr::Scan("R"),
                                RelExpr::Scan("S"),
                                Eq("R", "r_a", "S", "s_a"));
  // A single conjunct referencing three tables is outside the paper's
  // model (predicates reference at most two tables).
  ScalarExprPtr three = ScalarExpr::Or(
      {Eq("R", "r_b", "T", "t_b"), Eq("S", "s_b", "T", "t_a")});
  RelExprPtr tree =
      RelExpr::Join(JoinKind::kLeftOuter, rs, RelExpr::Scan("T"), three);
  EXPECT_DEATH(ViewDef("v", tree, FullOutput({"R", "S", "T"}), catalog_),
               "2 tables");
}

TEST_F(ViewDefDeathTest, RejectsSelectionOutsideSubtree) {
  RelExprPtr tree = RelExpr::Select(
      RelExpr::Scan("R"),
      ScalarExpr::Compare(CompareOp::kGt, ScalarExpr::Column("S", "s_a"),
                          ScalarExpr::Literal(Value::Int64(0))));
  EXPECT_DEATH(ViewDef("v", tree, FullOutput({"R"}), catalog_),
               "outside its subtree");
}

// WithProjection() narrows every scan to the columns the view reads;
// InitializeView evaluates it, RecomputeView the unpruned tree.
class NarrowedViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::CreateSchema(&catalog_);
    tpch::DbgenOptions options;
    options.scale_factor = 0.002;
    tpch::Dbgen dbgen(options);
    dbgen.Populate(&catalog_);
  }

  // Table -> projection of each narrowed scan under `expr`; a bare scan
  // fails the test.
  static void CollectNarrowedScans(
      const RelExprPtr& expr,
      std::map<std::string, std::vector<ColumnRef>>* scans) {
    switch (expr->kind()) {
      case RelKind::kProject:
        ASSERT_EQ(expr->input()->kind(), RelKind::kScan);
        EXPECT_TRUE(
            scans->emplace(expr->input()->table(), expr->projection())
                .second);
        return;
      case RelKind::kScan:
        ADD_FAILURE() << "scan of " << expr->table() << " is not narrowed";
        return;
      default:
        for (const RelExprPtr& child : expr->children()) {
          CollectNarrowedScans(child, scans);
        }
    }
  }

  // Every scan carries exactly its table's output and predicate columns,
  // and InitializeView's contents equal RecomputeView's. Returns the
  // narrowed scans.
  std::map<std::string, std::vector<ColumnRef>> CheckView(
      const ViewDef& view) {
    const RelExprPtr& expr = view.WithProjection();
    EXPECT_EQ(expr->kind(), RelKind::kProject);
    EXPECT_EQ(expr->projection(), view.output());
    std::map<std::string, std::vector<ColumnRef>> scans;
    CollectNarrowedScans(expr->input(), &scans);
    EXPECT_EQ(scans.size(), view.tables().size());

    std::map<std::string, std::set<ColumnRef>> expected;
    for (const ColumnRef& ref : view.output()) expected[ref.table].insert(ref);
    for (const ScalarExprPtr& c : view.conjuncts()) {
      std::vector<ColumnRef> refs;
      c->CollectColumns(&refs);
      for (const ColumnRef& ref : refs) expected[ref.table].insert(ref);
    }
    for (const auto& [table, columns] : scans) {
      EXPECT_EQ(std::set<ColumnRef>(columns.begin(), columns.end()),
                expected[table])
          << view.name() << ": scan of " << table;
      EXPECT_EQ(columns.size(), expected[table].size());
    }

    ViewMaintainer maintainer(&catalog_, view);
    maintainer.InitializeView();
    std::string diff;
    EXPECT_TRUE(SameBag(RecomputeView(catalog_, view),
                        maintainer.view().AsRelation(), &diff))
        << view.name() << ": " << diff;
    EXPECT_GT(maintainer.view().size(), 0);
    return scans;
  }

  Catalog catalog_;
};

TEST_F(NarrowedViewTest, PaperViewsMatchTheUnprunedRecompute) {
  CheckView(tpch::MakeV2(catalog_));
  std::map<std::string, std::vector<ColumnRef>> v3 =
      CheckView(tpch::MakeV3(catalog_));
  // lineitem keeps 7 of its 16 columns: six output columns and
  // l_partkey, which only the join with part reads.
  EXPECT_EQ(v3["lineitem"].size(), 7u);
  CheckView(tpch::MakeOjView(catalog_));
  CheckView(tpch::MakeV3(catalog_).CoreView(catalog_));
}

TEST_F(NarrowedViewTest, SqlWhereColumnOutsideTheOutputIsKept) {
  std::string error;
  std::optional<sql::ParsedView> parsed = sql::ParseCreateView(
      "CREATE VIEW open_orders AS "
      "SELECT o_orderkey, o_orderdate, l_linenumber, l_quantity "
      "FROM orders LEFT OUTER JOIN lineitem ON l_orderkey = o_orderkey "
      "WHERE o_orderstatus = 'O'",
      catalog_, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  std::map<std::string, std::vector<ColumnRef>> scans =
      CheckView(parsed->view);
  // o_orderstatus is read by the WHERE only; table column order.
  EXPECT_EQ(scans["orders"],
            (std::vector<ColumnRef>{{"orders", "o_orderkey"},
                                    {"orders", "o_orderstatus"},
                                    {"orders", "o_orderdate"}}));
}

// The aggregate's groups come from the narrowed evaluation; the oracle
// groups RecomputeView's rows by hand.
TEST_F(NarrowedViewTest, AggregateOverV3MatchesGroupedRecompute) {
  const ViewDef v3 = tpch::MakeV3(catalog_);
  AggViewMaintainer agg(
      &catalog_, v3, {{"customer", "c_mktsegment"}},
      {{AggregateSpec::Kind::kCountStar, {}, "rows"},
       {AggregateSpec::Kind::kSum, {"lineitem", "l_extendedprice"},
        "revenue"}});
  agg.InitializeView();

  struct Group {
    int64_t rows = 0;
    int64_t priced = 0;
    double revenue = 0;
  };
  std::map<std::string, Group> expected;
  const Relation base = RecomputeView(catalog_, v3);
  const int segment = base.schema().IndexOf({"customer", "c_mktsegment"});
  const int price = base.schema().IndexOf({"lineitem", "l_extendedprice"});
  for (const Row& row : base.rows()) {
    Group& group = expected[row[static_cast<size_t>(segment)].ToString()];
    ++group.rows;
    const Value& v = row[static_cast<size_t>(price)];
    if (v.is_null()) continue;
    ++group.priced;
    group.revenue += v.AsDouble();
  }

  // Columns: c_mktsegment, row_count, rows, revenue.
  const Relation contents = agg.Contents();
  ASSERT_EQ(contents.size(), static_cast<int64_t>(expected.size()));
  for (const Row& row : contents.rows()) {
    auto it = expected.find(row[0].ToString());
    ASSERT_NE(it, expected.end()) << row[0].ToString();
    EXPECT_EQ(row[1], Value::Int64(it->second.rows));
    EXPECT_EQ(row[2], Value::Int64(it->second.rows));
    if (it->second.priced == 0) {
      EXPECT_TRUE(row[3].is_null());
    } else {
      EXPECT_NEAR(row[3].AsDouble(), it->second.revenue,
                  1e-9 * std::abs(it->second.revenue));
    }
  }
}

}  // namespace
}  // namespace ojv

// View matching: answering queries from materialized outer-join views.
// Every accepted rewrite is checked against direct evaluation; the
// rejected cases are exactly the ones that would need [6]'s null-if
// compensation or are genuinely unanswerable.

#include "matching/view_matching.h"

#include "ivm/database.h"

#include <memory>

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "exec/evaluator.h"
#include "ivm/maintainer.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/tpch_schema.h"
#include "tpch/views.h"

namespace ojv {
namespace {

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

class ViewMatchingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::CreateSchema(&catalog_);
    tpch::DbgenOptions options;
    options.scale_factor = 0.002;
    tpch::Dbgen dbgen(options);
    dbgen.Populate(&catalog_);
  }

  // part fo (orders lo lineitem) — Example 1's view, full output.
  ViewDef MakeOjView() { return tpch::MakeOjView(catalog_); }

  // Checks that the rewrite answer equals direct evaluation.
  void ExpectAnswersMatch(const ViewDef& query, const ViewDef& view,
                          const MaterializedView& contents) {
    std::optional<Relation> from_view =
        AnswerFromView(query, view, contents, catalog_);
    ASSERT_TRUE(from_view.has_value());
    Relation direct = RecomputeView(catalog_, query);
    std::string diff;
    EXPECT_TRUE(SameBag(direct, *from_view, &diff)) << diff;
  }

  Catalog catalog_;
};

TEST_F(ViewMatchingTest, IdentityMatch) {
  ViewDef view = MakeOjView();
  ViewMaintainer maintainer(&catalog_, view, MaintenanceOptions());
  maintainer.InitializeView();
  MatchResult match = MatchView(view, view, catalog_);
  ASSERT_TRUE(match.matched) << match.reason;
  ExpectAnswersMatch(view, view, maintainer.view());
}

TEST_F(ViewMatchingTest, LeftOuterQueryFromFullOuterView) {
  // Query drops the {part} orphans: part lo' ... actually (orders lo
  // lineitem) ro'd... Express as: (orders lo lineitem) lo part — wait,
  // we need the query tree to produce terms {P,O,L},{O}: part joined
  // via right outer.
  ViewDef view = MakeOjView();
  ViewMaintainer maintainer(&catalog_, view, MaintenanceOptions());
  maintainer.InitializeView();

  RelExprPtr inner = RelExpr::Join(
      JoinKind::kLeftOuter, RelExpr::Scan("orders"), RelExpr::Scan("lineitem"),
      Eq("lineitem", "l_orderkey", "orders", "o_orderkey"));
  // RIGHT outer join part -> preserves the (orders lo lineitem) side
  // only: terms {P,O,L} and {O}; the {part} orphans are dropped.
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kRightOuter, RelExpr::Scan("part"), inner,
      Eq("part", "p_partkey", "lineitem", "l_partkey"));
  ViewDef query("q_lo", tree, view.output(), catalog_);

  MatchResult match = MatchView(query, view, catalog_);
  ASSERT_TRUE(match.matched) << match.reason;
  EXPECT_NE(match.rewrite->ToString().find("IS NULL"), std::string::npos);
  ExpectAnswersMatch(query, view, maintainer.view());
}

TEST_F(ViewMatchingTest, InnerJoinQueryFromOuterJoinView) {
  ViewDef view = MakeOjView();
  ViewMaintainer maintainer(&catalog_, view, MaintenanceOptions());
  maintainer.InitializeView();

  RelExprPtr inner = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("orders"), RelExpr::Scan("lineitem"),
      Eq("lineitem", "l_orderkey", "orders", "o_orderkey"));
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("part"), inner,
      Eq("part", "p_partkey", "lineitem", "l_partkey"));
  ViewDef query("q_inner", tree, view.output(), catalog_);

  MatchResult match = MatchView(query, view, catalog_);
  ASSERT_TRUE(match.matched) << match.reason;
  ExpectAnswersMatch(query, view, maintainer.view());
}

TEST_F(ViewMatchingTest, RangeCompensationOnCoreTable) {
  // Query tightens a predicate on lineitem (present in every retained
  // term after the inner-join restriction).
  ViewDef view = MakeOjView();
  ViewMaintainer maintainer(&catalog_, view, MaintenanceOptions());
  maintainer.InitializeView();

  RelExprPtr inner = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("orders"),
      RelExpr::Select(RelExpr::Scan("lineitem"),
                      ScalarExpr::Compare(
                          CompareOp::kLt, ScalarExpr::Column("lineitem",
                                                             "l_quantity"),
                          ScalarExpr::Literal(Value::Float64(10.0)))),
      Eq("lineitem", "l_orderkey", "orders", "o_orderkey"));
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("part"), inner,
      Eq("part", "p_partkey", "lineitem", "l_partkey"));
  ViewDef query("q_range", tree, view.output(), catalog_);

  MatchResult match = MatchView(query, view, catalog_);
  ASSERT_TRUE(match.matched) << match.reason;
  ExpectAnswersMatch(query, view, maintainer.view());
}

TEST_F(ViewMatchingTest, MatchSurvivesMaintenance) {
  // The whole point: a maintained view keeps answering queries.
  ViewDef view = MakeOjView();
  ViewMaintainer maintainer(&catalog_, view, MaintenanceOptions());
  maintainer.InitializeView();
  tpch::DbgenOptions options;
  options.scale_factor = 0.002;
  tpch::Dbgen dbgen(options);
  tpch::RefreshStream refresh(&catalog_, &dbgen, 55);

  RelExprPtr inner = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("orders"), RelExpr::Scan("lineitem"),
      Eq("lineitem", "l_orderkey", "orders", "o_orderkey"));
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("part"), inner,
      Eq("part", "p_partkey", "lineitem", "l_partkey"));
  ViewDef query("q_inner", tree, view.output(), catalog_);

  for (int round = 0; round < 3; ++round) {
    std::vector<Row> inserted = ApplyBaseInsert(
        catalog_.GetTable("lineitem"), refresh.NewLineitems(120));
    maintainer.OnInsert("lineitem", inserted);
    ExpectAnswersMatch(query, view, maintainer.view());

    std::vector<Row> deleted = ApplyBaseDelete(
        catalog_.GetTable("lineitem"), refresh.PickLineitemDeleteKeys(80));
    maintainer.OnDelete("lineitem", deleted);
    ExpectAnswersMatch(query, view, maintainer.view());
  }
}

TEST_F(ViewMatchingTest, RejectsDifferentTableSets) {
  ViewDef view = MakeOjView();
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("orders"), RelExpr::Scan("lineitem"),
      Eq("lineitem", "l_orderkey", "orders", "o_orderkey"));
  ViewDef query("q2", tree,
                {{"orders", "o_orderkey"},
                 {"lineitem", "l_orderkey"},
                 {"lineitem", "l_linenumber"}},
                catalog_);
  MatchResult match = MatchView(query, view, catalog_);
  EXPECT_FALSE(match.matched);
  EXPECT_NE(match.reason.find("table sets"), std::string::npos);
}

TEST_F(ViewMatchingTest, RejectsWhenViewFiltersMore) {
  // View restricted to cheap parts cannot answer the unrestricted query.
  RelExprPtr inner = RelExpr::Join(
      JoinKind::kLeftOuter, RelExpr::Scan("orders"), RelExpr::Scan("lineitem"),
      Eq("lineitem", "l_orderkey", "orders", "o_orderkey"));
  RelExprPtr view_tree = RelExpr::Join(
      JoinKind::kFullOuter,
      RelExpr::Select(RelExpr::Scan("part"),
                      ScalarExpr::Compare(
                          CompareOp::kLt,
                          ScalarExpr::Column("part", "p_retailprice"),
                          ScalarExpr::Literal(Value::Float64(1500.0)))),
      inner, Eq("part", "p_partkey", "lineitem", "l_partkey"));
  ViewDef narrow_view = ViewDef("narrow", view_tree,
                                tpch::MakeOjView(catalog_).output(), catalog_);
  ViewDef query = tpch::MakeOjView(catalog_);
  MatchResult match = MatchView(query, narrow_view, catalog_);
  EXPECT_FALSE(match.matched);
  EXPECT_NE(match.reason.find("does not imply"), std::string::npos);

  // The other direction (query narrower than view) also must not match:
  // restricting part to cheap ones resurrects {orders,lineitem} tuples
  // (lineitems of expensive parts survive null-extended) which the full
  // view's FK pruning eliminated — the null-if compensation case of [6].
  MatchResult reverse = MatchView(narrow_view, query, catalog_);
  EXPECT_FALSE(reverse.matched);
  EXPECT_NE(reverse.reason.find("lacks term"), std::string::npos);
}

TEST_F(ViewMatchingTest, RejectsNonCoreCompensation) {
  // A compensation predicate on a table that is null-extended in a
  // retained term cannot distribute over the minimum union.
  RelExprPtr view_tree = RelExpr::Join(
      JoinKind::kLeftOuter, RelExpr::Scan("customer"),
      RelExpr::Scan("orders"),
      Eq("customer", "c_custkey", "orders", "o_custkey"));
  std::vector<ColumnRef> output = {{"customer", "c_custkey"},
                                   {"customer", "c_acctbal"},
                                   {"orders", "o_orderkey"},
                                   {"orders", "o_totalprice"}};
  ViewDef view("co_view", view_tree, output, catalog_);

  // Query filters on o_totalprice on top of the SAME lo join: its JDNF
  // keeps only {C,O} (the selection is null-rejecting on orders), so the
  // {C} term is dropped — and {C} is not a subset of any dropped term,
  // dropping is fine; the o_totalprice conjunct then references a core
  // table of the single retained term. That MATCHES. To hit the
  // non-core rejection, put the filter under the join instead, keeping
  // both terms:
  RelExprPtr q_tree = RelExpr::Join(
      JoinKind::kLeftOuter, RelExpr::Scan("customer"),
      RelExpr::Select(RelExpr::Scan("orders"),
                      ScalarExpr::Compare(
                          CompareOp::kGt,
                          ScalarExpr::Column("orders", "o_totalprice"),
                          ScalarExpr::Literal(Value::Float64(1000.0)))),
      Eq("customer", "c_custkey", "orders", "o_custkey"));
  ViewDef query("co_query", q_tree, output, catalog_);
  MatchResult match = MatchView(query, view, catalog_);
  EXPECT_FALSE(match.matched);
  EXPECT_NE(match.reason.find("null-extended in some retained term"),
            std::string::npos)
      << match.reason;
}

TEST_F(ViewMatchingTest, FkAwareMatchingAcceptsRoFromLo) {
  // orders ro lineitem normally has a {lineitem} term the lo view lacks
  // — but the FK l_orderkey -> o_orderkey prunes it (every lineitem has
  // its order), so with the constraint declared the match is accepted
  // and correct.
  std::vector<ColumnRef> output = {{"orders", "o_orderkey"},
                                   {"orders", "o_custkey"},
                                   {"lineitem", "l_orderkey"},
                                   {"lineitem", "l_linenumber"}};
  ViewDef lo_view("v_lo",
                  RelExpr::Join(JoinKind::kLeftOuter, RelExpr::Scan("orders"),
                                RelExpr::Scan("lineitem"),
                                Eq("orders", "o_orderkey", "lineitem",
                                   "l_orderkey")),
                  output, catalog_);
  RelExprPtr q_tree = RelExpr::Join(
      JoinKind::kRightOuter, RelExpr::Scan("orders"),
      RelExpr::Scan("lineitem"),
      Eq("orders", "o_orderkey", "lineitem", "l_orderkey"));
  ViewDef query("q_ro", q_tree, output, catalog_);
  ViewMaintainer maintainer(&catalog_, lo_view, MaintenanceOptions());
  maintainer.InitializeView();
  MatchResult match = MatchView(query, lo_view, catalog_);
  ASSERT_TRUE(match.matched) << match.reason;
  ExpectAnswersMatch(query, lo_view, maintainer.view());
}

TEST_F(ViewMatchingTest, RejectsHiddenSubsetTerms) {
  // part / customer have no FK relationship, so nothing is pruned.
  // view = part lo customer (terms {P,C},{P});
  // query = part ro customer (terms {P,C},{C}): the {C} term is
  // missing from the view.
  ScalarExprPtr pred = Eq("part", "p_size", "customer", "c_nationkey");
  std::vector<ColumnRef> output = {{"part", "p_partkey"},
                                   {"part", "p_size"},
                                   {"customer", "c_custkey"},
                                   {"customer", "c_nationkey"}};
  ViewDef lo_view("pc_lo",
                  RelExpr::Join(JoinKind::kLeftOuter, RelExpr::Scan("part"),
                                RelExpr::Scan("customer"), pred),
                  output, catalog_);
  ViewDef query("pc_ro",
                RelExpr::Join(JoinKind::kRightOuter, RelExpr::Scan("part"),
                              RelExpr::Scan("customer"), pred),
                output, catalog_);
  MatchResult match = MatchView(query, lo_view, catalog_);
  EXPECT_FALSE(match.matched);
  EXPECT_NE(match.reason.find("lacks term"), std::string::npos);

  // The fo view answers both.
  ViewDef fo_view("pc_fo",
                  RelExpr::Join(JoinKind::kFullOuter, RelExpr::Scan("part"),
                                RelExpr::Scan("customer"), pred),
                  output, catalog_);
  ViewMaintainer maintainer(&catalog_, fo_view, MaintenanceOptions());
  maintainer.InitializeView();
  MatchResult fo_match = MatchView(query, fo_view, catalog_);
  ASSERT_TRUE(fo_match.matched) << fo_match.reason;
  ExpectAnswersMatch(query, fo_view, maintainer.view());
}

TEST_F(ViewMatchingTest, RejectsMissingOutputColumns) {
  ViewDef view = MakeOjView();
  RelExprPtr inner = RelExpr::Join(
      JoinKind::kLeftOuter, RelExpr::Scan("orders"), RelExpr::Scan("lineitem"),
      Eq("lineitem", "l_orderkey", "orders", "o_orderkey"));
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kFullOuter, RelExpr::Scan("part"), inner,
      Eq("part", "p_partkey", "lineitem", "l_partkey"));
  std::vector<ColumnRef> output = view.output();
  output.push_back({"orders", "o_totalprice"});  // view lacks this
  ViewDef query("q_cols", tree, output, catalog_);
  MatchResult match = MatchView(query, view, catalog_);
  EXPECT_FALSE(match.matched);
  EXPECT_NE(match.reason.find("does not output"), std::string::npos);
}

TEST_F(ViewMatchingTest, AnswerFromDatabaseScansRegisteredViews) {
  Database db;
  tpch::CreateSchema(db.catalog());
  tpch::DbgenOptions options;
  options.scale_factor = 0.002;
  tpch::Dbgen dbgen(options);
  dbgen.Populate(db.catalog());
  db.CreateMaterializedView(tpch::MakeOjView(*db.catalog()));

  RelExprPtr inner = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("orders"), RelExpr::Scan("lineitem"),
      Eq("lineitem", "l_orderkey", "orders", "o_orderkey"));
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("part"), inner,
      Eq("part", "p_partkey", "lineitem", "l_partkey"));
  ViewDef query("q", tree, tpch::MakeOjView(*db.catalog()).output(),
                *db.catalog());

  std::string which;
  std::optional<Relation> answer = AnswerFromDatabase(query, &db, &which);
  ASSERT_TRUE(answer.has_value());
  EXPECT_EQ(which, "oj_view");
  Relation direct = RecomputeView(*db.catalog(), query);
  std::string diff;
  EXPECT_TRUE(SameBag(direct, *answer, &diff)) << diff;

  // Statements keep the answers fresh.
  tpch::RefreshStream refresh(db.catalog(), &dbgen, 77);
  db.Insert("lineitem", refresh.NewLineitems(100));
  answer = AnswerFromDatabase(query, &db, &which);
  ASSERT_TRUE(answer.has_value());
  direct = RecomputeView(*db.catalog(), query);
  EXPECT_TRUE(SameBag(direct, *answer, &diff)) << diff;

  // An unanswerable query reports no match.
  RelExprPtr two = RelExpr::Join(
      JoinKind::kInner, RelExpr::Scan("orders"), RelExpr::Scan("lineitem"),
      Eq("lineitem", "l_orderkey", "orders", "o_orderkey"));
  ViewDef q2("q2", two,
             {{"orders", "o_orderkey"},
              {"lineitem", "l_orderkey"},
              {"lineitem", "l_linenumber"}},
             *db.catalog());
  EXPECT_FALSE(AnswerFromDatabase(q2, &db, nullptr).has_value());
}

// The database answer reads the view through ReadView: a stored view
// that lags the base tables must not answer stale rows.
class AnswerFromDatabaseFreshnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::CreateSchema(db_.catalog());
    tpch::DbgenOptions options;
    options.scale_factor = 0.002;
    dbgen_ = std::make_unique<tpch::Dbgen>(options);
    dbgen_->Populate(db_.catalog());
    db_.CreateMaterializedView(tpch::MakeOjView(*db_.catalog()));
    RelExprPtr inner = RelExpr::Join(
        JoinKind::kInner, RelExpr::Scan("orders"), RelExpr::Scan("lineitem"),
        Eq("lineitem", "l_orderkey", "orders", "o_orderkey"));
    RelExprPtr tree = RelExpr::Join(
        JoinKind::kInner, RelExpr::Scan("part"), inner,
        Eq("part", "p_partkey", "lineitem", "l_partkey"));
    query_ = std::make_unique<ViewDef>(
        "q", tree, tpch::MakeOjView(*db_.catalog()).output(), *db_.catalog());
  }

  void InsertLineitems(int64_t n) {
    tpch::RefreshStream refresh(db_.catalog(), dbgen_.get(), 77);
    ASSERT_EQ(db_.Insert("lineitem", refresh.NewLineitems(n)).rows_affected,
              n);
  }

  void ExpectFreshAnswer() {
    std::string which;
    std::optional<Relation> answer = AnswerFromDatabase(*query_, &db_, &which);
    ASSERT_TRUE(answer.has_value());
    EXPECT_EQ(which, "oj_view");
    std::string diff;
    EXPECT_TRUE(SameBag(RecomputeView(*db_.catalog(), *query_), *answer, &diff))
        << diff;
  }

  Database db_;
  std::unique_ptr<tpch::Dbgen> dbgen_;
  std::unique_ptr<ViewDef> query_;
};

TEST_F(AnswerFromDatabaseFreshnessTest, OnDemandViewCatchesUpFirst) {
  db_.SetRefreshPolicy("oj_view", deferred::RefreshPolicy::kOnDemand);
  InsertLineitems(100);
  ASSERT_EQ(db_.PendingRows("oj_view"), 100);
  ExpectFreshAnswer();
  EXPECT_EQ(db_.PendingRows("oj_view"), 0);
}

TEST_F(AnswerFromDatabaseFreshnessTest, EagerViewInsideTransaction) {
  ASSERT_TRUE(db_.BeginTransaction());
  InsertLineitems(100);
  ExpectFreshAnswer();
  ASSERT_TRUE(db_.Rollback());
  ExpectFreshAnswer();
}

}  // namespace
}  // namespace ojv

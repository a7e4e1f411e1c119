// End-to-end policy equivalence on the paper's experiment view V3 over
// TPC-H: the same randomized refresh-stream mix (order+lineitem arrivals,
// lineitem deletions and updates), then a hot-partkey lineitem stream,
// driven through three databases whose only difference is the view's
// refresh policy. After a final refresh the deferred views must be
// byte-identical to the eagerly maintained one, which in turn must match
// a from-scratch recompute (§7 setup).

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "common/date.h"
#include "common/rng.h"
#include "exec/relation.h"
#include "ivm/database.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/tpch_schema.h"
#include "tpch/views.h"

namespace ojv {
namespace {

using deferred::RefreshPolicy;

class DeferredTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::DbgenOptions options;
    options.scale_factor = 0.002;
    dbgen_ = std::make_unique<tpch::Dbgen>(options);
    for (Database* db : All()) {
      tpch::CreateSchema(db->catalog());
      dbgen_->Populate(db->catalog());
      views_.push_back(
          db->CreateMaterializedView(tpch::MakeV3(*db->catalog())));
    }
    on_demand_.SetRefreshPolicy("v3", RefreshPolicy::kOnDemand);
    deferred::ThresholdConfig config;
    config.max_pending_rows = 64;
    threshold_.SetRefreshPolicy("v3", RefreshPolicy::kThreshold, config);
  }

  std::vector<Database*> All() {
    return {&immediate_, &on_demand_, &threshold_};
  }

  void InsertAll(const std::string& table, const std::vector<Row>& rows) {
    for (Database* db : All()) {
      Database::StatementResult result = db->Insert(table, rows);
      ASSERT_TRUE(result.ok()) << result.error;
      ASSERT_EQ(result.rows_rejected, 0);
    }
  }

  /// Reads every database's V3 fresh and checks it against recompute.
  void ExpectFreshReadsMatchRecompute(const std::string& where) {
    for (Database* db : All()) {
      ViewSnapshot snap = db->ReadView("v3");
      ASSERT_TRUE(snap.valid()) << where;
      std::string diff;
      EXPECT_TRUE(ViewMatchesRecompute(*db->catalog(), views_[0]->view_def(),
                                       snap.relation(), &diff))
          << where << ", " << deferred::RefreshPolicyName(
                                  db->GetRefreshPolicy("v3"))
          << ": " << diff;
    }
  }

  std::unique_ptr<tpch::Dbgen> dbgen_;
  Database immediate_, on_demand_, threshold_;
  std::vector<ViewMaintainer*> views_;
};

TEST_F(DeferredTpchTest, PoliciesConvergeOnRandomizedRefreshMix) {
  // One stream drives all three databases: their base states stay
  // identical, only view maintenance timing differs.
  tpch::RefreshStream stream(immediate_.catalog(), dbgen_.get(), 42);
  Rng rng(7);
  const Table& lineitem = *immediate_.catalog()->GetTable("lineitem");
  int quantity = lineitem.schema().IndexOf("l_quantity");

  for (int round = 0; round < 5; ++round) {
    // RF1: new orders arriving with their lineitems.
    std::vector<Row> orders = stream.NewOrders(4);
    std::vector<Row> lines = stream.NewLineitemsFor(orders, 2);
    InsertAll("orders", orders);
    InsertAll("lineitem", lines);

    // Lineitems for existing orders.
    InsertAll("lineitem", stream.NewLineitems(12));

    // RF2: lineitem deletions.
    std::vector<Row> doomed = stream.PickLineitemDeleteKeys(8);
    for (Database* db : All()) {
      Database::StatementResult result = db->Delete("lineitem", doomed);
      ASSERT_TRUE(result.ok()) << result.error;
    }

    // Updates: bump l_quantity on existing lineitems (keys unchanged, so
    // the delete+insert pair stays an update pair through the log).
    std::vector<Row> update_keys = stream.PickLineitemDeleteKeys(4);
    std::vector<Row> new_rows;
    for (const Row& key : update_keys) {
      const Row* current = lineitem.FindByKey(key);
      ASSERT_NE(current, nullptr);
      Row row = *current;
      row[static_cast<size_t>(quantity)] =
          Value::Float64(static_cast<double>(rng.Uniform(1, 50)));
      new_rows.push_back(std::move(row));
    }
    for (Database* db : All()) {
      Database::StatementResult result =
          db->Update("lineitem", update_keys, new_rows);
      ASSERT_TRUE(result.ok()) << result.error;
    }

    // New parts and customers feed the view's orphan terms.
    InsertAll("part", stream.NewParts(3));
    InsertAll("customer", stream.NewCustomers(2));
  }

  // The deferred databases really deferred: the on-demand view has never
  // refreshed, the threshold view has (64-row trips), and both logged
  // real batches.
  EXPECT_GT(on_demand_.PendingRows("v3"), 0);
  const deferred::ViewRefreshState threshold_state =
      threshold_.RefreshState("v3");
  EXPECT_GT(threshold_state.refreshes, 0);
  EXPECT_GT(threshold_state.raw_entries, 0);

  deferred::RefreshStats stats = on_demand_.Refresh("v3");
  EXPECT_GT(stats.raw_entries, 0);
  threshold_.Refresh("v3");
  EXPECT_EQ(on_demand_.PendingRows("v3"), 0);
  EXPECT_EQ(threshold_.PendingRows("v3"), 0);

  std::string diff;
  EXPECT_TRUE(SameBag(views_[0]->view().AsRelation(),
                      views_[1]->view().AsRelation(), &diff))
      << "on-demand diverged from immediate: " << diff;
  EXPECT_TRUE(SameBag(views_[0]->view().AsRelation(),
                      views_[2]->view().AsRelation(), &diff))
      << "threshold diverged from immediate: " << diff;
  EXPECT_TRUE(ViewMatchesRecompute(*immediate_.catalog(),
                                   views_[0]->view_def(), views_[0]->view(),
                                   &diff))
      << diff;

  // Second input: a hot-partkey stream. Each round one new order dated
  // inside V3's o_orderdate window arrives with four lines whose part
  // keys draw Zipf ranks over the first 16 parts, so a few parts carry
  // most of the lines: the join fanout a popular product puts on the
  // {P} orphan term. Every other round reads all three views fresh.
  const ZipfDistribution zipf(16, 1.2);
  const int partkey = lineitem.schema().IndexOf("l_partkey");
  const int orderdate =
      immediate_.catalog()->GetTable("orders")->schema().IndexOf(
          "o_orderdate");
  int64_t next_order = dbgen_->num_orders() + 1000;
  for (int round = 0; round < 6; ++round) {
    const int64_t orderkey = tpch::Dbgen::SparseOrderKey(next_order++);
    Row order = dbgen_->MakeOrderRow(
        orderkey, dbgen_->RandomOrderingCustomer(&rng), &rng);
    order[static_cast<size_t>(orderdate)] =
        Value::Date(ParseDate("1994-08-23"));
    std::vector<Row> lines;
    for (int64_t ln = 1; ln <= 4; ++ln) {
      Row line = dbgen_->MakeLineitemRow(
          orderkey, ln, order[static_cast<size_t>(orderdate)].int64(), &rng);
      line[static_cast<size_t>(partkey)] = Value::Int64(1 + zipf.Sample(&rng));
      lines.push_back(std::move(line));
    }
    InsertAll("orders", {order});
    InsertAll("lineitem", lines);
    if (round % 2 == 1) {
      ExpectFreshReadsMatchRecompute("hot-partkey round " +
                                     std::to_string(round));
      if (HasFatalFailure()) return;
    }
  }
}

// A deferred refresh that computes ΔV^I from base tables (every
// aggregation view, and a row view with kFromBaseTables) replays the
// batch's orders insert on the constraint-free plans. There V3's {part}
// term has the parent {lineitem, orders, customer, part}, whose residual
// tables {lineitem, customer} share no conjunct: both join through
// orders. Joining them before orders built a |lineitem| x |customer|
// product; every join of the refresh must stay within |lineitem| rows.
TEST(DeferredFromBaseTablesTest, RefreshJoinsStayWithinLineitemRows) {
  tpch::DbgenOptions options;
  options.scale_factor = 0.002;
  tpch::Dbgen dbgen(options);
  Database db;
  tpch::CreateSchema(db.catalog());
  dbgen.Populate(db.catalog());
  const ViewDef v3 = tpch::MakeV3(*db.catalog());
  db.CreateAggregateView(
      ViewDef("v3_by_segment_date", v3.tree(), v3.output(), *db.catalog()),
      {{"customer", "c_mktsegment"}, {"orders", "o_orderdate"}},
      {{AggregateSpec::Kind::kCountStar, {}, "rows"},
       {AggregateSpec::Kind::kSum, {"lineitem", "l_extendedprice"},
        "revenue"}});
  MaintenanceOptions from_base;
  from_base.secondary_strategy = SecondaryStrategy::kFromBaseTables;
  db.CreateMaterializedView(
      ViewDef("v3_from_base", v3.tree(), v3.output(), *db.catalog()),
      &from_base);
  for (const char* view : {"v3_by_segment_date", "v3_from_base"}) {
    db.SetRefreshPolicy(view, RefreshPolicy::kOnDemand);
  }

  // 10 new lineitems on existing orders, then delete those 10, then 5
  // new orders with 3 lineitems each.
  tpch::RefreshStream stream(db.catalog(), &dbgen, 42);
  const Table& lineitem = *db.catalog()->GetTable("lineitem");
  std::vector<Row> lines = stream.NewLineitems(10);
  ASSERT_TRUE(db.Insert("lineitem", lines).ok());
  std::vector<Row> keys;
  for (const Row& row : lines) keys.push_back(lineitem.KeyOf(row));
  ASSERT_TRUE(db.Delete("lineitem", keys).ok());
  std::vector<Row> orders = stream.NewOrders(5);
  ASSERT_TRUE(db.Insert("orders", orders).ok());
  ASSERT_TRUE(db.Insert("lineitem", stream.NewLineitemsFor(orders, 3)).ok());

  obs::TraceContext trace;
  db.set_trace(&trace);
  db.Refresh("v3_by_segment_date");
  db.Refresh("v3_from_base");
  db.set_trace(nullptr);

  int64_t joins = 0;
  for (const obs::TraceEvent& ev : trace.Snapshot()) {
    if (ev.name != "exec.join") continue;
    ++joins;
    EXPECT_LE(ev.ArgOr("rows_out", 0), lineitem.size());
  }
  EXPECT_GT(joins, 0);

  std::string diff;
  EXPECT_TRUE(db.GetAggregateView("v3_by_segment_date")
                  ->MatchesRecompute(1e-9, &diff))
      << diff;
  ViewMaintainer* from_base_view = db.GetView("v3_from_base");
  EXPECT_TRUE(ViewMatchesRecompute(*db.catalog(), from_base_view->view_def(),
                                   from_base_view->view(), &diff))
      << diff;
}

// Same-batch churn through the consolidated replay: a third of each
// batch of single-row lineitem inserts is deleted again before the
// on-demand refresh, so consolidation cancels those entries outright.
// The refreshed V3 must equal an immediate database fed the same stream.
TEST(DeferredChurnTest, ConsolidatedReplayMatchesImmediate) {
  tpch::DbgenOptions gen_options;
  gen_options.scale_factor = 0.002;
  tpch::Dbgen dbgen(gen_options);
  Database immediate, deferred;
  for (Database* db : {&immediate, &deferred}) {
    tpch::CreateSchema(db->catalog());
    dbgen.Populate(db->catalog());
    db->CreateMaterializedView(tpch::MakeV3(*db->catalog()));
  }
  deferred.SetRefreshPolicy("v3", RefreshPolicy::kOnDemand);

  tpch::RefreshStream stream(immediate.catalog(), &dbgen, /*seed=*/7);
  for (int round = 0; round < 3; ++round) {
    std::vector<Row> rows = stream.NewLineitems(150);
    for (const Row& row : rows) {
      immediate.Insert("lineitem", {row});
      deferred.Insert("lineitem", {row});
    }
    std::vector<Row> churn_keys;
    for (size_t i = 0; i < rows.size(); i += 3) {
      churn_keys.push_back(Row{rows[i][0], rows[i][3]});
    }
    immediate.Delete("lineitem", churn_keys);
    deferred.Delete("lineitem", churn_keys);
    const deferred::RefreshStats stats = deferred.Refresh("v3");
    EXPECT_EQ(stats.cancelled_rows,
              2 * static_cast<int64_t>(churn_keys.size()))
        << "round " << round;

    Relation expected = immediate.ReadView("v3")->AsRelation();
    Relation actual = deferred.ReadView("v3")->AsRelation();
    EXPECT_TRUE(expected.Equals(actual))
        << "deferred replay diverges in round " << round;
  }
}

}  // namespace
}  // namespace ojv

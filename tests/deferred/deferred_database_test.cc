// Deferred maintenance through the Database facade: refresh policies,
// read-time catch-up, threshold trips (inline and on the background
// worker), multi-table revert-and-replay, transactions, and randomized
// policy equivalence on the paper's running-example view V1.

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "ivm/database.h"
#include "test_util.h"

namespace ojv {
namespace {

using deferred::RefreshPolicy;
using deferred::RefreshStats;
using deferred::ThresholdConfig;

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

class DeferredDatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.catalog()->CreateTable(
        "dept",
        Schema({ColumnDef{"d_id", ValueType::kInt64, false},
                ColumnDef{"d_name", ValueType::kString, false}}),
        {"d_id"});
    db_.catalog()->CreateTable(
        "emp",
        Schema({ColumnDef{"e_id", ValueType::kInt64, false},
                ColumnDef{"e_dept", ValueType::kInt64, false},
                ColumnDef{"e_salary", ValueType::kFloat64, true}}),
        {"e_id"});
  }

  ViewDef MakeDeptView() {
    RelExprPtr tree = RelExpr::Join(
        JoinKind::kFullOuter, RelExpr::Scan("dept"), RelExpr::Scan("emp"),
        Eq("dept", "d_id", "emp", "e_dept"));
    return ViewDef("dept_emp", tree,
                   {{"dept", "d_id"},
                    {"dept", "d_name"},
                    {"emp", "e_id"},
                    {"emp", "e_dept"},
                    {"emp", "e_salary"}},
                   *db_.catalog());
  }

  Row Dept(int64_t id, const char* name) {
    return Row{Value::Int64(id), Value::String(name)};
  }
  Row Emp(int64_t id, int64_t dept, double salary) {
    return Row{Value::Int64(id), Value::Int64(dept), Value::Float64(salary)};
  }
  Row Key(int64_t id) { return Row{Value::Int64(id)}; }

  ::testing::AssertionResult Matches(ViewMaintainer* view) {
    std::string diff;
    if (ViewMatchesRecompute(*db_.catalog(), view->view_def(), view->view(),
                             &diff)) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure() << diff;
  }

  Database db_;
};

TEST_F(DeferredDatabaseTest, OnDemandDefersUntilRead) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand);
  EXPECT_EQ(db_.GetRefreshPolicy("dept_emp"), RefreshPolicy::kOnDemand);

  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
  db_.Insert("emp", {Emp(10, 1, 100.0)});

  // Nothing was maintained yet: the statements only staged their rows.
  EXPECT_EQ(view->view().size(), 0);
  EXPECT_EQ(db_.PendingRows("dept_emp"), 3);

  // The read path catches up first (read-your-writes).
  ViewSnapshot contents = db_.ReadView("dept_emp");
  ASSERT_NE(contents, nullptr);
  EXPECT_EQ(contents->size(), 2);  // dept 1 + emp 10 joined, dept 2 orphan
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);
  EXPECT_TRUE(Matches(view));
}

TEST_F(DeferredDatabaseTest, ImmediateViewsAreNeverStale) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  Database::StatementResult result = db_.Insert("dept", {Dept(1, "eng")});
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);
  EXPECT_EQ(view->view().size(), 1);
  // Eager statements report their maintenance cost per view too.
  EXPECT_EQ(result.view_micros.count("dept_emp"), 1u);
  EXPECT_GE(result.maintenance_micros,
            result.view_micros["dept_emp"] - 1e-6);
  RefreshStats stats = db_.Refresh("dept_emp");
  EXPECT_EQ(stats.raw_entries, 0);  // no-op for kImmediate
}

TEST_F(DeferredDatabaseTest, InsertThenDeleteSameKeyCancelsAcrossStatements) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng")});
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand);

  db_.Insert("emp", {Emp(10, 1, 100.0), Emp(11, 1, 50.0)});
  db_.Delete("emp", {Key(10)});
  db_.Delete("emp", {Key(11)});

  RefreshStats stats = db_.Refresh("dept_emp");
  EXPECT_EQ(stats.raw_entries, 4);
  EXPECT_EQ(stats.cancelled_rows, 4);
  EXPECT_EQ(stats.consolidated_rows, 0);  // the maintainer saw nothing
  EXPECT_TRUE(Matches(view));
  EXPECT_EQ(view->view().size(), 1);  // dept 1 orphan, as before the batch
}

TEST_F(DeferredDatabaseTest, DeleteThenReinsertFoldsToUpdatePair) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng")});
  db_.Insert("emp", {Emp(10, 1, 100.0)});
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand);

  // Distinct statements, same key, changed non-key column.
  db_.Delete("emp", {Key(10)});
  db_.Insert("emp", {Emp(10, 1, 175.0)});

  RefreshStats stats = db_.Refresh("dept_emp");
  EXPECT_EQ(stats.raw_entries, 2);
  EXPECT_EQ(stats.update_pairs, 1);
  EXPECT_EQ(stats.consolidated_rows, 2);  // one pre-image + one post-image
  EXPECT_TRUE(Matches(view));
}

TEST_F(DeferredDatabaseTest, UpdateStatementsRouteConstraintFreeAtRefresh) {
  // An UPDATE's delete+insert halves are staged as an update pair; at
  // refresh they reach the maintainer together on the constraint-free
  // plan set (§6 caveat 1), wherever the refresh boundary falls.
  db_.catalog()->AddForeignKey({"emp", {"e_dept"}, "dept", {"d_id"}});
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
  db_.Insert("emp", {Emp(10, 1, 100.0)});
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand);

  ASSERT_TRUE(db_.Update("emp", {Key(10)}, {Emp(10, 2, 110.0)}).ok());
  EXPECT_EQ(db_.PendingRows("dept_emp"), 2);  // both halves staged

  RefreshStats stats = db_.Refresh("dept_emp");
  EXPECT_EQ(stats.update_pairs, 1);
  EXPECT_TRUE(Matches(view));

  // A second update whose refresh batch also contains unrelated inserts
  // (the pair sits mid-batch rather than alone).
  ASSERT_TRUE(db_.Update("emp", {Key(10)}, {Emp(10, 1, 120.0)}).ok());
  db_.Insert("emp", {Emp(11, 2, 90.0)});
  stats = db_.Refresh("dept_emp");
  EXPECT_EQ(stats.update_pairs, 1);
  EXPECT_TRUE(Matches(view));
}

TEST_F(DeferredDatabaseTest, ThresholdRefreshesInlineWhenPendingRowsTrip) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  ThresholdConfig config;
  config.max_pending_rows = 4;
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kThreshold, config);

  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
  EXPECT_EQ(db_.PendingRows("dept_emp"), 2);  // below the limit: stale
  EXPECT_EQ(view->view().size(), 0);

  Database::StatementResult result =
      db_.Insert("emp", {Emp(10, 1, 100.0), Emp(11, 2, 80.0)});
  // 4 pending rows reached the limit: the statement triggered a refresh.
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);
  EXPECT_TRUE(Matches(view));
  EXPECT_GT(result.view_micros.count("dept_emp"), 0u);

  const deferred::ViewRefreshState state = db_.RefreshState("dept_emp");
  EXPECT_EQ(state.refreshes, 1);
  EXPECT_EQ(state.raw_entries, 4);
}

TEST_F(DeferredDatabaseTest, ThresholdStalenessLimitTrips) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  ThresholdConfig config;
  config.max_pending_rows = 0;          // disabled
  config.max_staleness_micros = 1000;   // 1ms
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kThreshold, config);

  db_.Insert("dept", {Dept(1, "eng")});
  EXPECT_EQ(db_.PendingRows("dept_emp"), 1);

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  db_.Insert("dept", {Dept(2, "ops")});  // any statement re-checks
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);
  EXPECT_TRUE(Matches(view));
}

TEST_F(DeferredDatabaseTest, BackgroundWorkerDrainsThresholdViews) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  ThresholdConfig config;
  config.max_pending_rows = 1;  // every statement leaves the view due
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kThreshold, config);
  db_.StartBackgroundRefresh(std::chrono::milliseconds(2));
  EXPECT_TRUE(db_.background_refresh_running());

  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops"), Dept(3, "hr")});
  db_.Insert("emp", {Emp(10, 1, 100.0)});

  // The statements above ping the worker instead of refreshing inline;
  // wait for it to catch up.
  for (int i = 0; i < 500 && db_.PendingRows("dept_emp") > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);
  db_.StopBackgroundRefresh();
  EXPECT_FALSE(db_.background_refresh_running());
  EXPECT_TRUE(Matches(view));
}

TEST_F(DeferredDatabaseTest, SecondBackgroundRefreshStartFails) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  ThresholdConfig config;
  config.max_pending_rows = 1;
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kThreshold, config);
  EXPECT_TRUE(db_.StartBackgroundRefresh(std::chrono::milliseconds(2)));
  EXPECT_FALSE(db_.StartBackgroundRefresh(std::chrono::milliseconds(2)));
  EXPECT_TRUE(db_.background_refresh_running());

  // The one worker still drains the view.
  db_.Insert("dept", {Dept(1, "eng")});
  db_.Insert("emp", {Emp(10, 1, 100.0)});
  for (int i = 0; i < 500 && db_.PendingRows("dept_emp") > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  db_.StopBackgroundRefresh();
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);
  EXPECT_TRUE(Matches(view));
}

TEST_F(DeferredDatabaseTest, MultiTableBatchRevertsAndReplays) {
  // Changes to both operands of the full outer join in one pending
  // batch, including a same-batch cancellation: the refresh must revert
  // to the batch's pre-state and replay the net deltas in order — a
  // naive per-table replay against the final base state would
  // double-count the dept3/emp30 pairing.
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
  db_.Insert("emp", {Emp(10, 1, 100.0), Emp(20, 2, 90.0)});
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand);

  db_.Insert("dept", {Dept(3, "hr")});
  db_.Insert("emp", {Emp(30, 3, 70.0), Emp(31, 1, 60.0)});
  db_.Delete("emp", {Key(20)});
  db_.Insert("dept", {Dept(4, "tmp")});
  db_.Delete("dept", {Key(4)});  // cancels with the insert above

  RefreshStats stats = db_.Refresh("dept_emp");
  EXPECT_EQ(stats.tables_touched, 2);
  EXPECT_EQ(stats.cancelled_rows, 2);
  EXPECT_TRUE(Matches(view));

  // Refresh is idempotent once drained.
  stats = db_.Refresh("dept_emp");
  EXPECT_EQ(stats.raw_entries, 0);
  EXPECT_TRUE(Matches(view));
}

TEST_F(DeferredDatabaseTest, SwitchingBackToImmediateDrainsFirst) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand);
  db_.Insert("dept", {Dept(1, "eng")});
  EXPECT_EQ(db_.PendingRows("dept_emp"), 1);

  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kImmediate);
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);
  EXPECT_TRUE(Matches(view));

  db_.Insert("dept", {Dept(2, "ops")});  // maintained eagerly again
  EXPECT_EQ(view->view().size(), 2);
}

TEST_F(DeferredDatabaseTest, TransactionsDrainDeferredViewsAndRunEager) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand);
  db_.Insert("dept", {Dept(1, "eng")});
  EXPECT_EQ(db_.PendingRows("dept_emp"), 1);

  ASSERT_TRUE(db_.BeginTransaction());
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);  // drained at Begin
  EXPECT_TRUE(Matches(view));

  // Statements inside the transaction maintain the view immediately.
  db_.Insert("emp", {Emp(10, 1, 100.0)});
  EXPECT_TRUE(Matches(view));
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);

  db_.Rollback();
  EXPECT_TRUE(Matches(view));
  EXPECT_EQ(db_.catalog()->GetTable("emp")->size(), 0);
}

TEST_F(DeferredDatabaseTest, DroppingADeferredViewReleasesItsLog) {
  db_.CreateMaterializedView(MakeDeptView());
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand);
  db_.Insert("dept", {Dept(1, "eng")});
  EXPECT_TRUE(db_.DropView("dept_emp"));

  // Statements keep working and nothing accumulates.
  db_.Insert("dept", {Dept(2, "ops")});
  EXPECT_EQ(db_.catalog()->GetTable("dept")->size(), 2);
}

TEST_F(DeferredDatabaseTest, AggregateViewsRefreshOnDemandToo) {
  db_.CreateAggregateView(
      MakeDeptView(), {{"dept", "d_name"}},
      {{AggregateSpec::Kind::kCountStar, {}, "n"},
       {AggregateSpec::Kind::kSum, {"emp", "e_salary"}, "payroll"}});
  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand);

  db_.Insert("emp", {Emp(10, 1, 100.0), Emp(11, 1, 50.0), Emp(12, 2, 70.0)});
  db_.Delete("emp", {Key(11)});
  db_.Update("emp", {Key(12)}, {Emp(12, 2, 75.0)});

  Relation groups =
      db_.ReadAggregateRelation("dept_emp").AsRelation();  // refreshes
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);
  std::string diff;
  EXPECT_TRUE(db_.GetAggregateView("dept_emp")->MatchesRecompute(1e-9, &diff))
      << diff;
  EXPECT_EQ(groups.rows().size(), 2u);
}

// Zipf-ranked RSTU rows: both join columns draw ranks from `zipf`, so a
// few values carry most of every join's fanout, with occasional NULLs.
std::vector<Row> HotKeyRows(Rng* rng, const ZipfDistribution& zipf, int n,
                            int64_t* next_key) {
  auto join_value = [&]() {
    return rng->Chance(0.08) ? Value::Null() : Value::Int64(zipf.Sample(rng));
  };
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int64((*next_key)++), join_value(), join_value(),
                       Value::Int64(rng->Uniform(0, 999))});
  }
  return rows;
}

// All three policies — and a from-scratch recompute — agree on the
// paper's running-example view V1 under a randomized statement mix, on
// two inputs. The uniform input draws join keys uniformly and refreshes
// the on-demand view explicitly mid-run. The hot-key input draws them
// from a Zipf distribution, deletes and updates the most recently
// inserted rows (the OLTP hot tail, so deferred batches net repeated
// touches of one key) and moves updated rows to another join key; it
// reads all three views fresh every fourth statement. Every read checks
// every view against recompute.
TEST(DeferredPolicyEquivalenceTest, RandomizedMixConvergesAcrossPolicies) {
  for (const bool hot_keys : {false, true}) {
    SCOPED_TRACE(hot_keys ? "hot-key input" : "uniform input");
    Rng rng(hot_keys ? 77 : 20260806);
    const ZipfDistribution zipf(8, 1.2);
    Database immediate, on_demand, threshold;
    Database* dbs[] = {&immediate, &on_demand, &threshold};
    const char* tables[] = {"R", "S", "T", "U"};
    // Live keys per table in insertion order; the hot tail is its end.
    std::map<std::string, std::vector<Row>> live;
    int64_t next_key = 1;
    for (Database* db : dbs) testing_util::CreateRstuSchema(db->catalog());
    if (hot_keys) {
      for (const char* table : tables) {
        std::vector<Row> rows = HotKeyRows(&rng, zipf, 10, &next_key);
        for (Database* db : dbs) db->Insert(table, rows);
        for (const Row& row : rows) live[table].push_back({row[0]});
      }
    }

    ViewMaintainer* views[3];
    for (int i = 0; i < 3; ++i) {
      views[i] = dbs[i]->CreateMaterializedView(
          testing_util::MakeV1(*dbs[i]->catalog()));
    }
    on_demand.SetRefreshPolicy("v1", RefreshPolicy::kOnDemand);
    deferred::ThresholdConfig config;
    config.max_pending_rows = 16;
    threshold.SetRefreshPolicy("v1", RefreshPolicy::kThreshold, config);

    auto read_all = [&](const std::string& where) {
      for (Database* db : dbs) {
        ViewSnapshot snap = db->ReadView("v1");
        ASSERT_TRUE(snap.valid()) << where;
        std::string diff;
        EXPECT_TRUE(ViewMatchesRecompute(*db->catalog(), views[0]->view_def(),
                                         snap.relation(), &diff))
            << where << ", "
            << deferred::RefreshPolicyName(db->GetRefreshPolicy("v1"))
            << ": " << diff;
      }
    };
    // Up to n distinct keys among the last 8 live rows of `table`.
    auto hot_tail = [&](const std::string& table, int n) {
      const std::vector<Row>& keys = live[table];
      const int64_t span = std::min<int64_t>(8, keys.size());
      std::vector<Row> picked;
      for (int i = 0; i < n; ++i) {
        const Row& key = keys[keys.size() - 1 -
                              static_cast<size_t>(rng.Uniform(0, span - 1))];
        if (std::find(picked.begin(), picked.end(), key) == picked.end()) {
          picked.push_back(key);
        }
      }
      return picked;
    };

    bool deferred_work_seen = false;
    for (int step = 0; step < 120; ++step) {
      const std::string table = tables[rng.Uniform(0, 3)];
      // Statements are generated once against the first database's state
      // (all base states are identical) and applied to all three.
      const Table& current = *immediate.catalog()->GetTable(table);
      double dice = rng.NextDouble();
      if (dice < 0.5 || current.size() == 0) {
        std::vector<Row> rows =
            hot_keys ? HotKeyRows(&rng, zipf,
                                  static_cast<int>(rng.Uniform(1, 4)),
                                  &next_key)
                     : testing_util::RandomRstuRows(
                           table, &rng, static_cast<int>(rng.Uniform(1, 4)),
                           6, &next_key);
        for (Database* db : dbs) db->Insert(table, rows);
        for (const Row& row : rows) live[table].push_back({row[0]});
      } else if (dice < 0.75) {
        std::vector<Row> keys = hot_keys
                                    ? hot_tail(table, 2)
                                    : testing_util::SampleKeys(current, &rng, 2);
        for (Database* db : dbs) db->Delete(table, keys);
        for (const Row& key : keys) {
          std::vector<Row>& keys_live = live[table];
          keys_live.erase(
              std::find(keys_live.begin(), keys_live.end(), key));
        }
      } else {
        std::vector<Row> keys = hot_keys
                                    ? hot_tail(table, 2)
                                    : testing_util::SampleKeys(current, &rng, 2);
        std::vector<Row> new_rows;
        for (const Row& key : keys) {
          Row row = *current.FindByKey(key);
          if (hot_keys) {
            // Join-key update: the row moves to another (likely hot) key.
            row[1] = rng.Chance(0.1) ? Value::Null()
                                     : Value::Int64(zipf.Sample(&rng));
          } else {
            row[3] = Value::Int64(rng.Uniform(0, 999));  // payload column
            if (rng.Chance(0.3)) row[2] = Value::Null();  // join column
          }
          new_rows.push_back(std::move(row));
        }
        for (Database* db : dbs) db->Update(table, keys, new_rows);
      }
      if (on_demand.PendingRows("v1") > 20) {
        deferred_work_seen = true;
        on_demand.Refresh("v1");  // periodic explicit refresh mid-run
      }
      if (hot_keys && step % 4 == 3) {
        deferred_work_seen |= on_demand.PendingRows("v1") > 0;
        read_all("step " + std::to_string(step));
        if (::testing::Test::HasFailure()) return;
      }
    }
    EXPECT_TRUE(deferred_work_seen);

    on_demand.Refresh("v1");
    threshold.Refresh("v1");
    EXPECT_EQ(on_demand.PendingRows("v1"), 0);
    EXPECT_EQ(threshold.PendingRows("v1"), 0);

    // Byte-identical across policies, and correct against recompute.
    std::string diff;
    EXPECT_TRUE(SameBag(views[0]->view().AsRelation(),
                        views[1]->view().AsRelation(), &diff))
        << "on-demand diverged: " << diff;
    EXPECT_TRUE(SameBag(views[0]->view().AsRelation(),
                        views[2]->view().AsRelation(), &diff))
        << "threshold diverged: " << diff;
    read_all("final read");
  }
}

}  // namespace
}  // namespace ojv

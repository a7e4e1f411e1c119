// The deferred refresh scheduler: RefreshScheduler's Due() gates
// (staleness-only thresholds, the pending==0 gate, non-threshold
// policies), its report layout, and the refresh schedule a kThreshold
// view follows through the Database facade.

#include "deferred/scheduler.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "ivm/database.h"

namespace ojv {
namespace deferred {
namespace {

// --- RefreshScheduler::Due() gates ---------------------------------

TEST(RefreshSchedulerDueTest, StalenessOnlyThreshold) {
  RefreshScheduler s;
  ThresholdConfig config;
  config.max_pending_rows = 0;  // row limit disabled
  config.max_staleness_micros = 1000;
  s.SetPolicy("v", RefreshPolicy::kThreshold, config);

  EXPECT_FALSE(s.Due("v", 5, 999));
  EXPECT_TRUE(s.Due("v", 5, 1000));
  EXPECT_TRUE(s.Due("v", 1, 5000));
}

TEST(RefreshSchedulerDueTest, NothingPendingIsNeverDue) {
  RefreshScheduler s;
  ThresholdConfig config;
  config.max_pending_rows = 0;
  config.max_staleness_micros = 1;
  s.SetPolicy("v", RefreshPolicy::kThreshold, config);

  // Staleness is measured on pending log entries; with none pending the
  // view cannot be stale, whatever the staleness figure says.
  EXPECT_FALSE(s.Due("v", 0, 1e9));
  EXPECT_FALSE(s.Due("v", -3, 1e9));
}

TEST(RefreshSchedulerDueTest, NonThresholdPoliciesAreNeverDue) {
  RefreshScheduler s;
  ThresholdConfig config;
  config.max_pending_rows = 1;
  s.SetPolicy("od", RefreshPolicy::kOnDemand, config);
  EXPECT_FALSE(s.Due("od", 100, 1e9));
  EXPECT_FALSE(s.Due("unknown", 100, 1e9));
}

TEST(RefreshSchedulerReportTest, LongViewNamesStayAligned) {
  RefreshScheduler s;
  const std::string long_name = "a_view_name_much_longer_than_18_chars";
  s.SetPolicy("v", RefreshPolicy::kThreshold, ThresholdConfig{});
  s.SetPolicy(long_name, RefreshPolicy::kOnDemand, ThresholdConfig{});
  RefreshStats stats;
  stats.raw_entries = 5;
  stats.consolidated_rows = 3;
  stats.refresh_micros = 1500;
  stats.staleness_micros = 2500;
  s.RecordRefresh(long_name, stats);

  const std::string report = s.Report();
  // Every row's policy column starts where the header's does, even with
  // a 37-char view name (the old fixed %-18s layout broke here).
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t nl = report.find('\n'); nl != std::string::npos;
       nl = report.find('\n', start)) {
    lines.push_back(report.substr(start, nl - start));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 3u);
  const size_t policy_col = lines[0].find("policy");
  ASSERT_NE(policy_col, std::string::npos);
  for (size_t i = 1; i < lines.size(); ++i) {
    const bool od = lines[i].find("on-demand") != std::string::npos;
    EXPECT_EQ(lines[i].find(od ? "on-demand" : "threshold"), policy_col)
        << "misaligned row: " << lines[i];
  }
  // The new staleness column is present and carries the recorded value.
  EXPECT_NE(lines[0].find("staleness-ms"), std::string::npos);
  EXPECT_NE(lines[1].find("2.50"), std::string::npos);
}

// --- the threshold schedule through Database ------------------------

TEST(ThresholdScheduleTest, PendingRowLimitTripsEveryThirdStatement) {
  Database db;
  db.catalog()->CreateTable(
      "dept",
      Schema({ColumnDef{"d_id", ValueType::kInt64, false},
              ColumnDef{"d_name", ValueType::kString, false}}),
      {"d_id"});
  db.catalog()->CreateTable(
      "emp",
      Schema({ColumnDef{"e_id", ValueType::kInt64, false},
              ColumnDef{"e_dept", ValueType::kInt64, false},
              ColumnDef{"e_salary", ValueType::kFloat64, true}}),
      {"e_id"});
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kFullOuter, RelExpr::Scan("dept"), RelExpr::Scan("emp"),
      ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column("dept", "d_id"),
                          ScalarExpr::Column("emp", "e_dept")));
  ViewMaintainer* view = db.CreateMaterializedView(
      ViewDef("dept_emp", tree,
              {{"dept", "d_id"},
               {"dept", "d_name"},
               {"emp", "e_id"},
               {"emp", "e_dept"},
               {"emp", "e_salary"}},
              *db.catalog()));
  db.Insert("dept", {Row{Value::Int64(1), Value::String("eng")}});

  ThresholdConfig threshold;
  threshold.max_pending_rows = 3;
  ASSERT_TRUE(
      db.SetRefreshPolicy("dept_emp", RefreshPolicy::kThreshold, threshold));

  // Each single-row statement stages one row; the third pending row
  // reaches the limit and that statement refreshes inline.
  const std::vector<int64_t> pending = {1, 2, 0, 1, 2, 0, 1, 2, 0, 1};
  const std::vector<int64_t> refreshes = {0, 0, 1, 1, 1, 2, 2, 2, 3, 3};
  for (int i = 0; i < 10; ++i) {
    db.Insert("emp", {Row{Value::Int64(100 + i), Value::Int64(1),
                          Value::Float64(10.0 * i)}});
    EXPECT_EQ(db.PendingRows("dept_emp"), pending[static_cast<size_t>(i)])
        << "after statement " << i;
    EXPECT_EQ(db.RefreshState("dept_emp").refreshes,
              refreshes[static_cast<size_t>(i)])
        << "after statement " << i;
  }

  ViewSnapshot snap = db.ReadView("dept_emp");
  ASSERT_TRUE(snap.valid());
  std::string diff;
  EXPECT_TRUE(ViewMatchesRecompute(*db.catalog(), view->view_def(),
                                   snap.relation(), &diff))
      << diff;
}

}  // namespace
}  // namespace deferred
}  // namespace ojv

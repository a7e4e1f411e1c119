// DeltaLog truncation under consumers that advance their high-water
// marks on different schedules. No entry may be dropped while any
// consumer still needs it, and the log must fully drain once every
// consumer catches up.

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "deferred/delta_log.h"
#include "ivm/database.h"

namespace ojv {
namespace {

using deferred::DeltaLog;
using deferred::DeltaOp;
using deferred::RefreshPolicy;

Row IntRow(int64_t v) { return {Value::Int64(v)}; }

TEST(DeltaLogTruncateTest, MixedConsumersWithInterleavedMarks) {
  DeltaLog log;
  log.RegisterConsumer("pair_a");
  log.RegisterConsumer("pair_b");
  log.RegisterConsumer("solo");

  log.Append("t", DeltaOp::kInsert, {IntRow(1), IntRow(2)});  // seq 1, 2
  log.Append("u", DeltaOp::kInsert, {IntRow(3)});             // seq 3
  EXPECT_EQ(log.size(), 3);

  // Two consumers advance to the tail in lockstep. The solo consumer
  // still needs everything, so nothing is dropped.
  log.AdvanceTo("pair_a", log.tail());
  log.AdvanceTo("pair_b", log.tail());
  log.TruncateConsumed();
  EXPECT_EQ(log.size(), 3);
  EXPECT_EQ(log.PendingRows("solo", {"t", "u"}), 3);

  // More entries arrive; the solo consumer catches up only part way
  // (to seq 3), so seq 4 must survive — the pair now lags.
  log.Append("t", DeltaOp::kDelete, {IntRow(1)});  // seq 4
  log.AdvanceTo("solo", 3);
  log.TruncateConsumed();
  EXPECT_EQ(log.size(), 1);
  EXPECT_EQ(log.PendingRows("pair_a", {"t", "u"}), 1);
  EXPECT_EQ(log.PendingRows("pair_b", {"t", "u"}), 1);
  EXPECT_EQ(log.PendingRows("solo", {"t", "u"}), 1);

  // Everyone drains: the log empties.
  log.AdvanceTo("pair_a", log.tail());
  log.AdvanceTo("pair_b", log.tail());
  log.AdvanceTo("solo", log.tail());
  log.TruncateConsumed();
  EXPECT_EQ(log.size(), 0);
}

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

// Database-level: two independent deferred views over the same tables,
// refreshed at different times. A refresh of one must not drop entries
// the other still needs; once both have refreshed, the log drains.
TEST(DeltaLogTruncateTest, StaggeredRefreshesKeepEntriesUntilAllConsume) {
  Database db;
  db.catalog()->CreateTable(
      "C",
      Schema({ColumnDef{"c_id", ValueType::kInt64, false},
              ColumnDef{"c_a", ValueType::kInt64, true}}),
      {"c_id"});
  db.catalog()->CreateTable(
      "O",
      Schema({ColumnDef{"o_id", ValueType::kInt64, false},
              ColumnDef{"o_c", ValueType::kInt64, true}}),
      {"o_id"});
  auto co_view = [&](const char* name, const char* c_col) {
    RelExprPtr tree =
        RelExpr::Join(JoinKind::kLeftOuter, RelExpr::Scan("C"),
                      RelExpr::Scan("O"), Eq("C", c_col, "O", "o_c"));
    return ViewDef(name, tree, {{"C", "c_id"}, {"O", "o_id"}},
                   *db.catalog());
  };
  db.CreateMaterializedView(co_view("v1", "c_id"));
  db.CreateMaterializedView(co_view("v2", "c_a"));
  for (const char* v : {"v1", "v2"}) {
    db.SetRefreshPolicy(v, RefreshPolicy::kOnDemand);
  }

  db.Insert("C", {{Value::Int64(1), Value::Int64(1)}});
  db.Insert("O", {{Value::Int64(1), Value::Int64(1)},
                  {Value::Int64(2), Value::Int64(1)}});
  ASSERT_EQ(db.PendingRows("v1"), 3);
  ASSERT_EQ(db.PendingRows("v2"), 3);

  // v1 refreshes alone: v2 still needs every entry.
  db.Refresh("v1");
  EXPECT_EQ(db.PendingRows("v1"), 0);
  EXPECT_EQ(db.PendingRows("v2"), 3);
  EXPECT_EQ(db.DeltaLogSize(), 3);

  // More entries arrive; now v2 refreshes alone. The entries v2 consumed
  // first are gone, the two v1 still needs survive.
  db.Insert("O", {{Value::Int64(3), Value::Int64(1)}});
  db.Delete("O", {{Value::Int64(1)}});
  EXPECT_EQ(db.PendingRows("v1"), 2);
  EXPECT_EQ(db.PendingRows("v2"), 5);
  db.Refresh("v2");
  EXPECT_EQ(db.PendingRows("v2"), 0);
  EXPECT_EQ(db.PendingRows("v1"), 2);
  EXPECT_EQ(db.DeltaLogSize(), 2);

  // Once both are at the tail the log is drained, and no entry was lost
  // on the way: both views equal a recompute.
  db.Refresh("v1");
  EXPECT_EQ(db.DeltaLogSize(), 0);
  for (const char* v : {"v1", "v2"}) {
    ViewMaintainer* view = db.GetView(v);
    std::string diff;
    EXPECT_TRUE(ViewMatchesRecompute(*db.catalog(), view->view_def(),
                                     view->view(), &diff))
        << v << ": " << diff;
  }
}

}  // namespace
}  // namespace ojv

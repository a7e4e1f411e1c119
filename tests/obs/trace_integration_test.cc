// Integration test: maintain the paper's experiment view V3 over TPC-H
// updates with a TraceContext attached, and check that the trace tells
// the true story — the expected stage set is present, the secondary
// delta is reported as skipped exactly when FK pruning makes it
// unnecessary, and the operator row counts agree with the
// MaintenanceStats the maintainer returned (they are one measurement,
// not two).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ivm/database.h"
#include "ivm/maintainer.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/tpch_schema.h"
#include "tpch/views.h"

namespace ojv {
namespace {

class TraceIntegrationFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::CreateSchema(&catalog_);
    tpch::DbgenOptions options;
    options.scale_factor = 0.002;
    dbgen_ = std::make_unique<tpch::Dbgen>(options);
    dbgen_->Populate(&catalog_);
    refresh_ =
        std::make_unique<tpch::RefreshStream>(&catalog_, dbgen_.get(), 321);
  }

  Catalog catalog_;
  std::unique_ptr<tpch::Dbgen> dbgen_;
  std::unique_ptr<tpch::RefreshStream> refresh_;
};

TEST_F(TraceIntegrationFixture, LineitemInsertStageSetAndRowCounts) {
  ViewDef v3 = tpch::MakeV3(catalog_);
  ViewMaintainer maintainer(&catalog_, v3, MaintenanceOptions());
  maintainer.InitializeView();

  obs::TraceContext trace;
  maintainer.set_trace(&trace);
  std::vector<Row> inserted = ApplyBaseInsert(catalog_.GetTable("lineitem"),
                                              refresh_->NewLineitems(100));
  MaintenanceStats stats = maintainer.OnInsert("lineitem", inserted);
  maintainer.set_trace(nullptr);

  // The full immediate-maintenance stage set, including the exec
  // operators under the primary delta (the lineitem plan joins the
  // delta against orders, customer, and part).
  for (const char* span :
       {"ivm.maintain", "ivm.primary_delta", "ivm.apply", "exec.delta_scan",
        "exec.join"}) {
    EXPECT_TRUE(trace.HasSpan(span)) << span;
  }
  EXPECT_EQ(trace.SpanCount("ivm.maintain"), 1);

  // Row accounting: trace args and returned stats are the same numbers.
  EXPECT_EQ(trace.ArgSum("ivm.maintain", "delta_rows"), stats.delta_rows);
  EXPECT_EQ(stats.delta_rows, static_cast<int64_t>(inserted.size()));
  EXPECT_EQ(trace.ArgSum("ivm.primary_delta", "rows_out"), stats.primary_rows);
  EXPECT_EQ(trace.ArgSum("ivm.primary_delta", "rows_in"), stats.delta_rows);
  EXPECT_EQ(trace.ArgSum("ivm.maintain", "rows_out"),
            stats.primary_rows + stats.secondary_rows);
  EXPECT_EQ(trace.ArgSum("ivm.apply", "rows"), stats.primary_rows);

  // The span durations ARE the legacy stats (FinishWithDuration), up to
  // the int64 truncation the trace stores.
  EXPECT_NEAR(trace.StageMicros("ivm.maintain"), stats.total_micros, 1.0);
  EXPECT_NEAR(trace.StageMicros("ivm.primary_delta"), stats.primary_micros,
              1.0);
  EXPECT_NEAR(trace.StageMicros("ivm.apply"), stats.apply_micros, 1.0);

  // The plan root's rows_out is the primary delta's rows_out: the last
  // exec event recorded under the primary span is the root (post-order).
  std::vector<obs::TraceEvent> events = trace.Snapshot();
  const obs::TraceEvent* last_exec = nullptr;
  for (const obs::TraceEvent& ev : events) {
    if (ev.category == "exec") last_exec = &ev;
  }
  ASSERT_NE(last_exec, nullptr);
  EXPECT_EQ(last_exec->ArgOr("rows_out", -1), stats.primary_rows);
}

TEST_F(TraceIntegrationFixture, PartInsertSkipsSecondaryDelta) {
  ViewDef v3 = tpch::MakeV3(catalog_);
  ViewMaintainer maintainer(&catalog_, v3, MaintenanceOptions());
  maintainer.InitializeView();

  obs::TraceContext trace;
  maintainer.set_trace(&trace);
  std::vector<Row> inserted =
      ApplyBaseInsert(catalog_.GetTable("part"), refresh_->NewParts(50));
  MaintenanceStats stats = maintainer.OnInsert("part", inserted);
  maintainer.set_trace(nullptr);

  // FK pruning: a part insert only touches V3's direct {part} orphan
  // term; no term is indirectly affected, so the secondary stage must
  // be reported as explicitly skipped, not silently absent.
  EXPECT_EQ(stats.indirect_terms, 0);
  EXPECT_EQ(stats.secondary_rows, 0);
  EXPECT_TRUE(trace.HasSpan("ivm.secondary_delta.skipped"));
  EXPECT_FALSE(trace.HasSpan("ivm.secondary_delta"));
  std::vector<obs::TraceEvent> events = trace.Snapshot();
  for (const obs::TraceEvent& ev : events) {
    if (ev.name != "ivm.secondary_delta.skipped") continue;
    const std::string* reason = ev.StrArg("reason");
    ASSERT_NE(reason, nullptr);
    EXPECT_EQ(*reason, "no_indirect_terms");
  }
}

TEST_F(TraceIntegrationFixture, OrdersUpdateIsTheorem3NoOp) {
  ViewDef v3 = tpch::MakeV3(catalog_);
  ViewMaintainer maintainer(&catalog_, v3, MaintenanceOptions());
  maintainer.InitializeView();

  // Theorem 3 proves an orders change cannot affect V3 (every directly
  // affected term is FK-protected); the trace must still record the
  // maintain call and say why it did nothing.
  obs::TraceContext trace;
  maintainer.set_trace(&trace);
  std::vector<Row> orders = ApplyBaseInsert(catalog_.GetTable("orders"),
                                            refresh_->NewOrders(10));
  MaintenanceStats stats = maintainer.OnInsert("orders", orders);
  maintainer.set_trace(nullptr);

  EXPECT_TRUE(stats.fk_fast_path);
  EXPECT_EQ(stats.primary_rows, 0);
  ASSERT_EQ(trace.SpanCount("ivm.maintain"), 1);
  std::vector<obs::TraceEvent> events = trace.Snapshot();
  const std::string* skipped = nullptr;
  for (const obs::TraceEvent& ev : events) {
    if (ev.name == "ivm.maintain") skipped = ev.StrArg("skipped");
  }
  ASSERT_NE(skipped, nullptr);
  EXPECT_EQ(*skipped, "delta_empty");
  EXPECT_FALSE(trace.HasSpan("ivm.primary_delta"));
}

TEST(TraceDatabaseTest, StatementSpansWrapMaintenance) {
  Database db;
  tpch::CreateSchema(db.catalog());
  tpch::DbgenOptions options;
  options.scale_factor = 0.002;
  tpch::Dbgen dbgen(options);
  dbgen.Populate(db.catalog());
  tpch::RefreshStream refresh(db.catalog(), &dbgen, 77);
  const ViewDef v3 = tpch::MakeV3(*db.catalog());
  db.CreateMaterializedView(v3);
  db.CreateAggregateView(
      ViewDef("v3_by_segment", v3.tree(), v3.output(), *db.catalog()),
      {{"customer", "c_mktsegment"}},
      {{AggregateSpec::Kind::kCountStar, {}, "rows"},
       {AggregateSpec::Kind::kSum, {"lineitem", "l_extendedprice"},
        "revenue"}});

  obs::TraceContext trace;
  db.set_trace(&trace);
  std::vector<Row> orders = refresh.NewOrders(5);
  db.Insert("orders", orders);
  Database::StatementResult result =
      db.Insert("lineitem", refresh.NewLineitemsFor(orders, 2));
  db.set_trace(nullptr);
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(trace.SpanCount("db.insert"), 2);
  EXPECT_TRUE(trace.HasSpan("ivm.maintain"));
  // The statement span reports the same row count as the result, and
  // every ivm.maintain span is parented under a db.* statement span.
  std::vector<obs::TraceEvent> events = trace.Snapshot();
  int64_t lineitem_rows = -1;
  for (const obs::TraceEvent& ev : events) {
    if (ev.name != "db.insert") continue;
    const std::string* table = ev.StrArg("table");
    if (table != nullptr && *table == "lineitem") {
      lineitem_rows = ev.ArgOr("rows_affected", -1);
    }
  }
  EXPECT_EQ(lineitem_rows, result.rows_affected);
  for (const obs::TraceEvent& ev : events) {
    if (ev.name != "ivm.maintain") continue;
    ASSERT_GE(ev.parent, 0);
    EXPECT_EQ(events[static_cast<size_t>(ev.parent)].category, "db");
  }
  // The aggregate view runs the same pipeline: its lineitem maintenance
  // is an ivm.maintain span under the statement, with a primary delta.
  bool aggregate_primary = false;
  for (size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& ev = events[i];
    const std::string* view = ev.StrArg("view");
    if (ev.name != "ivm.maintain" || view == nullptr ||
        *view != "v3_by_segment") {
      continue;
    }
    ASSERT_GE(ev.parent, 0);
    EXPECT_EQ(events[static_cast<size_t>(ev.parent)].name, "db.insert");
    for (const obs::TraceEvent& child : events) {
      if (child.name == "ivm.primary_delta" &&
          child.parent == static_cast<int>(i)) {
        aggregate_primary = true;
      }
    }
  }
  EXPECT_TRUE(aggregate_primary);
}

}  // namespace
}  // namespace ojv

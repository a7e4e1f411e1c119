// EXPLAIN output: the maintenance report names the right terms, fast
// paths, and clean-up lists for the paper's views.

#include "ivm/explain.h"

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/tpch_schema.h"
#include "tpch/views.h"

namespace ojv {
namespace {

TEST(ExplainTest, OjViewReport) {
  Catalog catalog;
  tpch::CreateSchema(&catalog);
  ViewMaintainer maintainer(&catalog, tpch::MakeOjView(catalog),
                            MaintenanceOptions());
  std::string report = ExplainMaintenance(maintainer);

  // Normal form section.
  EXPECT_NE(report.find("normal form (3 terms)"), std::string::npos);
  EXPECT_NE(report.find("{lineitem,orders,part}"), std::string::npos);

  // part inserts are delta-only.
  EXPECT_NE(report.find("on update of part:"), std::string::npos);
  EXPECT_NE(report.find("fast path"), std::string::npos);

  // lineitem updates clean up both orphan terms.
  size_t lineitem_at = report.find("on update of lineitem:");
  ASSERT_NE(lineitem_at, std::string::npos);
  std::string lineitem_section = report.substr(lineitem_at);
  EXPECT_NE(lineitem_section.find("{orders} orphans"), std::string::npos);
  EXPECT_NE(lineitem_section.find("{part} orphans"), std::string::npos);
}

TEST(ExplainTest, V3ReportsOrdersNoop) {
  Catalog catalog;
  tpch::CreateSchema(&catalog);
  ViewMaintainer maintainer(&catalog, tpch::MakeV3(catalog),
                            MaintenanceOptions());
  std::string report = ExplainMaintenance(maintainer);
  size_t orders_at = report.find("on update of orders:");
  ASSERT_NE(orders_at, std::string::npos);
  EXPECT_NE(report.find("no-op", orders_at), std::string::npos);
  EXPECT_NE(report.find("Theorem 3", orders_at), std::string::npos);
}

TEST(ExplainTest, NormalFormSectionListsPredicates) {
  Catalog catalog;
  tpch::CreateSchema(&catalog);
  ViewMaintainer maintainer(&catalog, tpch::MakeV3(catalog),
                            MaintenanceOptions());
  std::string report = ExplainNormalForm(maintainer);
  EXPECT_NE(report.find("where"), std::string::npos);
  EXPECT_NE(report.find("subsumption graph:"), std::string::npos);
  EXPECT_NE(report.find("-> {customer}"), std::string::npos);
}

// A small lineitem insert into V3 probes every join step through a key
// or FK index: the plan lines mark the probes, and the measured plan
// still zips one exec span onto every node.
TEST(ExplainTest, V3LineitemInsertShowsProbeJoins) {
  Catalog catalog;
  tpch::CreateSchema(&catalog);
  tpch::DbgenOptions options;
  options.scale_factor = 0.002;
  tpch::Dbgen dbgen(options);
  dbgen.Populate(&catalog);
  tpch::RefreshStream refresh(&catalog, &dbgen, /*seed=*/7);
  obs::TraceContext trace;
  MaintenanceOptions maintenance;
  maintenance.trace = &trace;
  ViewMaintainer maintainer(&catalog, tpch::MakeV3(catalog), maintenance);
  maintainer.InitializeView();
  trace.Clear();
  std::vector<Row> rows = ApplyBaseInsert(catalog.GetTable("lineitem"),
                                          refresh.NewLineitems(3));
  maintainer.OnInsert("lineitem", rows);

  std::string report = ExplainMaintenance(maintainer, trace);
  size_t plan_at = report.find("plan[insert]");
  ASSERT_NE(plan_at, std::string::npos);
  EXPECT_NE(report.find(") probe", plan_at), std::string::npos);
  size_t measured_at = report.find("measured maintenance");
  ASSERT_NE(measured_at, std::string::npos);
  EXPECT_NE(report.find("algo=index", measured_at), std::string::npos);
  EXPECT_EQ(report.find("algo=hash", measured_at), std::string::npos);
  EXPECT_EQ(report.find("not matched", measured_at), std::string::npos);
}

}  // namespace
}  // namespace ojv

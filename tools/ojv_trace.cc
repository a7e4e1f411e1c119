// ojv_trace: replay a TPC-H maintenance workload with tracing on and
// export what happened.
//
//   ojv_trace [--sf=0.01] [--seed=N] [--out=DIR] [--check]
//
// Builds a small TPC-H instance inside a Database with two views —
// the experiment view V3 (immediate maintenance) and the Example 1
// outer-join view (deferred, refreshed on demand) — attaches one
// TraceContext to the whole pipeline, and replays a mixed workload:
// order + lineitem inserts, lineitem deletes, an order update, and an
// explicit deferred refresh. It then prints the annotated
// EXPLAIN-with-stats for V3 and writes
//
//   DIR/trace.json   Chrome trace_event JSON — load in chrome://tracing
//                    or https://ui.perfetto.dev
//   DIR/stats.json   flat per-stage aggregates + the metric registry
//
// --check additionally asserts the trace contains the expected stage
// set (used by the obs stage of tools/check.sh); the exit code reports
// the result.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/date.h"
#include "ivm/database.h"
#include "ivm/explain.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/tpch_schema.h"
#include "tpch/views.h"

namespace ojv {
namespace {

struct Options {
  double scale_factor = 0.01;
  uint64_t seed = 19940601;
  std::string out_dir = ".";
  bool check = false;
};

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--sf=", 5) == 0) {
      options.scale_factor = std::atof(arg + 5);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      options.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      options.out_dir = arg + 6;
    } else if (std::strcmp(arg, "--check") == 0) {
      options.check = true;
    } else {
      std::fprintf(stderr,
                   "usage: ojv_trace [--sf=D] [--seed=N] [--out=DIR]"
                   " [--check]\n");
      std::exit(2);
    }
  }
  return options;
}

/// The deferred view of the workload's threshold tail: customers left
/// outer joined to their orders placed since 1993.
ViewDef MakeCustomerOrdersView(const Catalog& catalog) {
  auto col = [](const char* table, const char* column) {
    return ScalarExpr::Column(table, column);
  };
  RelExprPtr orders_side = RelExpr::Select(
      RelExpr::Scan("orders"),
      ScalarExpr::Compare(
          CompareOp::kGe, col("orders", "o_orderdate"),
          ScalarExpr::Literal(Value::Date(ParseDate("1993-01-01")))));
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kLeftOuter, RelExpr::Scan("customer"), std::move(orders_side),
      ScalarExpr::Compare(CompareOp::kEq, col("customer", "c_custkey"),
                          col("orders", "o_custkey")));
  return ViewDef("cust_orders", std::move(tree),
                 {{"customer", "c_custkey"},
                  {"customer", "c_acctbal"},
                  {"orders", "o_orderkey"},
                  {"orders", "o_custkey"},
                  {"orders", "o_orderdate"}},
                 catalog);
}

int CheckTrace(const obs::TraceContext& trace) {
  int failures = 0;
  auto require = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what);
      ++failures;
    }
  };
  // The stage set an insert/delete/update/refresh workload must produce.
  for (const char* span : {"db.insert", "db.delete", "db.update",
                           "ivm.maintain", "ivm.primary_delta", "ivm.apply",
                           "exec.delta_scan", "exec.join", "deferred.refresh",
                           "ivm.init_view"}) {
    require(trace.HasSpan(span), span);
    if (trace.HasSpan(span)) {
      require(trace.StageMicros(span) > 0,
              (std::string(span) + " has zero duration").c_str());
    }
  }
  // Normalization spans must be present (their durations can round to
  // zero microseconds on small views, so only presence is required).
  for (const char* span : {"ivm.plan.jdnf", "ivm.plan.table"}) {
    require(trace.HasSpan(span), span);
  }
  // The threshold tail's trip must refresh inline, inside the
  // statement that tripped it: a deferred.refresh nested in a db.insert.
  const std::vector<obs::TraceEvent> events = trace.Snapshot();
  bool inline_refresh = false;
  for (const obs::TraceEvent& e : events) {
    if (e.name == "deferred.refresh" && e.parent >= 0 &&
        events[static_cast<size_t>(e.parent)].name == "db.insert") {
      inline_refresh = true;
    }
  }
  require(inline_refresh, "deferred.refresh inside db.insert");
  // Theorem 3 prunes the secondary delta of V3's lineitem updates: the
  // trace must say so explicitly rather than just omit the stage.
  require(trace.HasSpan("ivm.secondary_delta.skipped"),
          "ivm.secondary_delta.skipped");
  // Operator row accounting: every primary delta's rows_out is the
  // rows_out of its plan root, so the sums must agree with what the
  // maintainers reported upward.
  require(trace.ArgSum("ivm.maintain", "rows_out") >= 0, "rows_out sums");
  require(trace.SpanCount("exec.join") > 0, "at least one traced join");
  return failures;
}

int Run(int argc, char** argv) {
  Options options = ParseArgs(argc, argv);

  Database db;
  tpch::CreateSchema(db.catalog());
  tpch::DbgenOptions dbgen_options;
  dbgen_options.scale_factor = options.scale_factor;
  dbgen_options.seed = options.seed;
  tpch::Dbgen dbgen(dbgen_options);
  dbgen.Populate(db.catalog());
  tpch::RefreshStream refresh(db.catalog(), &dbgen, options.seed + 1);

  // Attach the trace before the views exist so normalization (JDNF,
  // maintenance-graph classification) and initial computation are
  // captured too — new views inherit the database's trace.
  obs::TraceContext trace;
  db.set_trace(&trace);

  // V3 is maintained inside every statement; the Example 1 view runs
  // deferred so the trace also exercises the log + consolidation path.
  ViewMaintainer* v3 = db.CreateMaterializedView(tpch::MakeV3(*db.catalog()));
  db.CreateMaterializedView(tpch::MakeOjView(*db.catalog()));
  db.SetRefreshPolicy("oj_view", deferred::RefreshPolicy::kOnDemand);

  // --- the workload -----------------------------------------------------
  std::vector<Row> orders = refresh.NewOrders(20);
  db.Insert("orders", orders);
  db.Insert("lineitem", refresh.NewLineitemsFor(orders, 3));
  // New parts populate V3's {part} orphan term directly; the term has no
  // indirectly affected children, so the trace records the secondary
  // delta as explicitly skipped.
  db.Insert("part", refresh.NewParts(10));
  db.Delete("lineitem", refresh.PickLineitemDeleteKeys(30));

  // An UPDATE statement: bump the total price of the new orders.
  std::vector<Row> keys;
  std::vector<Row> new_rows;
  for (const Row& row : orders) {
    keys.push_back(Row{row[0]});
    Row updated = row;
    updated[3] = Value::Float64(row[3].float64() * 1.1);
    new_rows.push_back(std::move(updated));
  }
  db.Update("orders", keys, new_rows);

  // Bring the deferred view up to date: consolidation + batched replay.
  db.Refresh("oj_view");

  // --- threshold tail ---------------------------------------------------
  // A second deferred view, refreshed on demand once.
  db.CreateMaterializedView(MakeCustomerOrdersView(*db.catalog()));
  db.SetRefreshPolicy("cust_orders", deferred::RefreshPolicy::kOnDemand);
  db.Insert("orders", refresh.NewOrders(20));
  db.Refresh("cust_orders");

  // A pending threshold the next statement trips: the due-view scan
  // refreshes the view inline, inside that statement's db.insert span.
  deferred::ThresholdConfig tight;
  tight.max_pending_rows = 1;
  db.SetRefreshPolicy("cust_orders", deferred::RefreshPolicy::kThreshold,
                      tight);
  db.Insert("orders", refresh.NewOrders(2));

  db.set_trace(nullptr);

  // --- outputs ----------------------------------------------------------
  std::printf("%s\n", ExplainMaintenance(*v3, trace).c_str());

  const std::string trace_path = options.out_dir + "/trace.json";
  const std::string stats_path = options.out_dir + "/stats.json";
  {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    trace.WriteChromeTrace(out);
  }
  {
    std::ofstream out(stats_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", stats_path.c_str());
      return 1;
    }
    trace.WriteStatsJson(out);
  }
  std::printf("wrote %s (%zu events) and %s\n", trace_path.c_str(),
              trace.event_count(), stats_path.c_str());

  // Live-telemetry artifacts: the exporter's snapshot files (the input
  // ojv_top reads in --file mode) and a flight-recorder dump in the
  // same Chrome format as trace.json.
  std::string export_error;
  if (!obs::WriteSnapshotFiles(obs::Registry::Global(), options.out_dir,
                               &export_error)) {
    std::fprintf(stderr, "%s\n", export_error.c_str());
    return 1;
  }
  if (!obs::FlightRecorder::Global().DumpToFile(
          options.out_dir + "/flight.json", &export_error)) {
    std::fprintf(stderr, "%s\n", export_error.c_str());
    return 1;
  }
  std::printf("wrote %s/{metrics.prom, snapshot.json, flight.json}\n",
              options.out_dir.c_str());

  if (options.check) {
    int failures = CheckTrace(trace);
    if (obs::FlightRecorder::Global().Snapshot().empty()) {
      std::fprintf(stderr, "CHECK FAILED: flight recorder saw no spans\n");
      ++failures;
    }
    if (failures != 0) {
      std::fprintf(stderr, "%d trace check(s) failed\n", failures);
      return 1;
    }
    std::printf("trace checks passed\n");
  }
  return 0;
}

}  // namespace
}  // namespace ojv

int main(int argc, char** argv) { return ojv::Run(argc, argv); }

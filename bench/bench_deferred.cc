// Deferred vs immediate maintenance of view V3 on the Figure-5 insert
// workload, driven through the Database facade.
//
// Immediate mode pays one maintenance pass per statement: inserting a
// batch as single-row statements runs the left-deep delta pipeline (§4)
// once per row. Deferred mode stages the same statements in the delta
// log and runs the pipeline once over the consolidated ΔT at refresh —
// per-statement cost becomes an append, and the batched refresh
// amortizes plan execution over the whole batch.
//
// The churn table shows the other deferred win: rows inserted and
// deleted again before the refresh consolidate away entirely, so the
// maintainers never see them, while immediate maintenance pays for both
// statements.

#include <unistd.h>

#include "bench_util.h"
#include "ivm/database.h"
#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "tpch/views.h"

namespace ojv {
namespace bench {
namespace {

/// A Database with TPC-H populated and V3 registered.
struct Instance {
  Database db;

  explicit Instance(tpch::Dbgen* dbgen) {
    tpch::CreateSchema(db.catalog());
    // Populate is deterministic: both instances get identical tables.
    dbgen->Populate(db.catalog());
    db.CreateMaterializedView(tpch::MakeV3(*db.catalog()));
  }
};

int Run(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  std::printf("TPC-H SF=%.3f (lineitem rows: ~%lld)\n", options.scale_factor,
              static_cast<long long>(options.scale_factor * 6000000));

  // Live telemetry: `--metrics-port=9464` serves /metrics (Prometheus),
  // /snapshot.json, and /flight.json on localhost for the whole run, so
  // the tables below can be watched from curl or ojv_top while they
  // execute.
  obs::HttpExportServer metrics_server;
  if (options.metrics_port != 0) {
    if (metrics_server.Start(options.metrics_port)) {
      std::printf("telemetry: http://127.0.0.1:%d/metrics\n",
                  metrics_server.port());
      // Arm SIGUSR2 flight dumps too: a served bench is the process the
      // README tells people to poke, and without a handler the default
      // SIGUSR2 disposition kills it.
      obs::FlightRecorder::Global().StartSignalDumps("/tmp/ojv");
      std::printf("flight dumps: kill -USR2 %d -> /tmp/ojv/flight-<n>.json\n",
                  static_cast<int>(getpid()));
    } else {
      std::fprintf(stderr, "cannot serve telemetry on port %d (port in use)\n",
                   options.metrics_port);
    }
  }

  tpch::DbgenOptions gen_options;
  gen_options.scale_factor = options.scale_factor;
  gen_options.seed = options.seed;
  tpch::Dbgen dbgen(gen_options);
  Instance immediate(&dbgen);
  Instance deferred(&dbgen);
  deferred.db.SetRefreshPolicy("v3", deferred::RefreshPolicy::kOnDemand);

  // One stream drives both databases so their base states stay equal.
  tpch::RefreshStream stream(immediate.db.catalog(), &dbgen, options.seed);

  JsonReport report("deferred", options);
  PrintHeader(
      "V3 maintenance: single-row insert statements, immediate vs deferred",
      {"Rows", "Immediate", "Stage", "Refresh", "Deferred", "Speedup"});
  for (int64_t batch : options.batches) {
    std::vector<Row> rows = stream.NewLineitems(batch);

    double immediate_ms = TimeMs([&] {
      for (const Row& row : rows) immediate.db.Insert("lineitem", {row});
    });
    double stage_ms = TimeMs([&] {
      for (const Row& row : rows) deferred.db.Insert("lineitem", {row});
    });
    deferred::RefreshStats stats;
    double refresh_ms = TimeMs([&] { stats = deferred.db.Refresh("v3"); });
    double deferred_ms = stage_ms + refresh_ms;

    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  immediate_ms / std::max(deferred_ms, 1e-3));
    PrintRow({FormatCount(batch), FormatMs(immediate_ms), FormatMs(stage_ms),
              FormatMs(refresh_ms), FormatMs(deferred_ms), speedup});
    report.BeginRow();
    report.Str("workload", "insert");
    report.Count("batch_rows", batch);
    report.Num("immediate_ms", immediate_ms);
    report.Num("stage_ms", stage_ms);
    report.Num("refresh_ms", refresh_ms);
    report.Num("deferred_ms", deferred_ms);

    // Restore both databases (and views) for the next batch size.
    std::vector<Row> keys = LineitemKeys(rows);
    immediate.db.Delete("lineitem", keys);
    deferred.db.Delete("lineitem", keys);
    deferred.db.Refresh("v3");
  }

  // Churn: every inserted row is deleted again before the refresh.
  PrintHeader("Churn (insert+delete same rows before refresh)",
              {"Rows", "Immediate", "Deferred", "NetRows", "Cancelled"});
  for (int64_t batch : options.batches) {
    std::vector<Row> rows = stream.NewLineitems(batch);
    std::vector<Row> keys = LineitemKeys(rows);

    double immediate_ms = TimeMs([&] {
      for (const Row& row : rows) immediate.db.Insert("lineitem", {row});
      immediate.db.Delete("lineitem", keys);
    });
    deferred::RefreshStats stats;
    double deferred_ms = TimeMs([&] {
      for (const Row& row : rows) deferred.db.Insert("lineitem", {row});
      deferred.db.Delete("lineitem", keys);
      stats = deferred.db.Refresh("v3");
    });
    PrintRow({FormatCount(batch), FormatMs(immediate_ms),
              FormatMs(deferred_ms), FormatCount(stats.consolidated_rows),
              FormatCount(stats.cancelled_rows)});
    report.BeginRow();
    report.Str("workload", "churn");
    report.Count("batch_rows", batch);
    report.Num("immediate_ms", immediate_ms);
    report.Num("deferred_ms", deferred_ms);
    report.Count("consolidated_rows", stats.consolidated_rows);
    report.Count("cancelled_rows", stats.cancelled_rows);
  }

  std::printf("\n%s\n", deferred.db.RefreshReport().c_str());
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

#ifndef OJV_BENCH_BENCH_UTIL_H_
#define OJV_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "ivm/maintainer.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/tpch_schema.h"

namespace ojv {
namespace bench {

/// Command-line knobs shared by all paper-table benchmarks:
///   --sf=<double>      TPC-H scale factor (default 0.05)
///   --seed=<uint64>    generator seed
///   --batches=a,b,c    insert/delete batch sizes (default 60,600,6000;
///                      pass --batches=60,600,6000,60000 for the full
///                      sweep of the paper — the GK baseline takes
///                      minutes at 60000)
///   --json <path>      also write results as JSON to <path>
///                      (--json=<path> works too); the file carries the
///                      benchmark name, options, host core count, and
///                      one object per printed row
///   --metrics-port=N   serve live telemetry on 127.0.0.1:N for the
///                      duration of the run (GET /metrics,
///                      /snapshot.json, /flight.json — see
///                      obs/http_server.h); 0 (default) = off
struct BenchOptions {
  double scale_factor = 0.05;
  uint64_t seed = 19940601;
  std::vector<int64_t> batches = {60, 600, 6000};
  std::string json_path;
  int metrics_port = 0;

  static BenchOptions Parse(int argc, char** argv);
};

/// A populated TPC-H database plus its refresh stream.
struct TpchInstance {
  Catalog catalog;
  std::unique_ptr<tpch::Dbgen> dbgen;
  std::unique_ptr<tpch::RefreshStream> refresh;

  explicit TpchInstance(const BenchOptions& options);
};

/// Milliseconds spent in fn.
double TimeMs(const std::function<void()>& fn);

/// Median of `samples` (the mean of the middle two for an even count);
/// 0 when empty.
double Median(std::vector<double> samples);

/// The unique keys (l_orderkey, l_linenumber) of full lineitem rows.
std::vector<Row> LineitemKeys(const std::vector<Row>& rows);

/// Fixed-width table printing helpers.
void PrintHeader(const std::string& title,
                 const std::vector<std::string>& columns);
void PrintRow(const std::vector<std::string>& cells);
std::string FormatMs(double ms);
std::string FormatCount(int64_t n);

/// Machine-readable benchmark results. Each benchmark builds one report
/// (mirroring its printed rows field by field) and calls Write() at the
/// end; Write is a no-op unless --json was given, so the human-readable
/// table stays the default output. The emitted document is
///
///   { "benchmark": ..., "scale_factor": ..., "seed": ...,
///     "host_cores": ..., "build_type": ..., "sanitize": ...,
///     "results": [ {row fields...}, ... ] }
///
/// which the trajectory file BENCH_pipeline.json aggregates across runs.
/// The build_type/sanitize header fields identify the binary that
/// produced the numbers (a sanitizer or Debug run is not comparable to a
/// Release one).
class JsonReport {
 public:
  JsonReport(std::string benchmark, const BenchOptions& options);

  /// Starts a new result object; Num/Count/Str attach fields to it.
  void BeginRow();
  void Num(const std::string& key, double value);
  void Count(const std::string& key, int64_t value);
  void Str(const std::string& key, const std::string& value);
  /// Attaches a raw (already-serialized) JSON value, e.g. a per-stage
  /// breakdown object from StagesJson().
  void Obj(const std::string& key, const std::string& raw_json);

  /// Writes the report to the --json path. Returns false (and writes
  /// nothing) when no path was given; aborts if the path is unwritable.
  bool Write() const;

 private:
  std::string benchmark_;
  const BenchOptions options_;
  std::vector<std::string> rows_;  // accumulated "k": v fragments per row
};

/// Per-stage breakdown of one (or one accumulated) maintenance run as a
/// JSON object: {"primary_ms": ..., "apply_ms": ..., "secondary_ms": ...,
/// "total_ms": ..., "primary_rows": ..., "secondary_rows": ...,
/// "fk_fast_path": ...}. Feed it to JsonReport::Obj under "stages".
std::string StagesJson(const MaintenanceStats& stats);

}  // namespace bench
}  // namespace ojv

#endif  // OJV_BENCH_BENCH_UTIL_H_

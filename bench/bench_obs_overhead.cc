// Cost of the always-on telemetry layer on the V3 maintenance path.
//
// The same batched lineitem insert (one statement per batch) is timed in
// three instrumentation modes:
//
//   baseline    flight recorder off, no TraceContext — the bare
//               maintenance pipeline
//   recorder    flight recorder on (the always-on default): every span
//               pays the enabled check plus four relaxed stores into
//               the per-thread ring
//   ours        recorder on + a TraceContext attached + one full
//               exporter scrape (Prometheus text + JSON snapshot
//               serialized to memory) per batch — everything the live
//               telemetry endpoint costs while being polled
//
// Each of kReps reps runs all three modes once, in an order that rotates
// from rep to rep, and every mode reports its median over the reps.
// Interleaving spreads a shared host's drift over the three modes alike,
// so the overhead percentages compare like with like; with index-probe
// maintenance a 60-row insert takes well under a millisecond, far below
// that drift. `ours_ms` is the gated column (check.sh bench-gate,
// section obs_overhead in BENCH_pipeline.json); the overhead
// percentages are what DESIGN.md §15 quotes.

#include <sstream>

#include "bench_util.h"
#include "ivm/database.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tpch/views.h"

namespace ojv {
namespace bench {
namespace {

constexpr int kReps = 15;

enum Mode { kBaseline, kRecorder, kOurs, kNumModes };

int Run(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  std::printf("TPC-H SF=%.3f, %d reps, modes interleaved (medians)\n",
              options.scale_factor, kReps);

  Database db;
  tpch::CreateSchema(db.catalog());
  tpch::DbgenOptions gen_options;
  gen_options.scale_factor = options.scale_factor;
  gen_options.seed = options.seed;
  tpch::Dbgen dbgen(gen_options);
  dbgen.Populate(db.catalog());
  db.CreateMaterializedView(tpch::MakeV3(*db.catalog()));
  tpch::RefreshStream stream(db.catalog(), &dbgen, options.seed);

  obs::FlightRecorder& recorder = obs::FlightRecorder::Global();
  const bool recorder_was_enabled = recorder.enabled();

  JsonReport report("obs_overhead", options);
  PrintHeader("Telemetry overhead on batched V3 maintenance",
              {"Rows", "Baseline", "Recorder", "Ours", "Rec%", "Ours%"});
  for (int64_t batch : options.batches) {
    // One insert+restore cycle in `mode`, maintenance timed; kOurs
    // attaches a TraceContext and serializes one exporter snapshot
    // inside the timed region.
    auto measure = [&](Mode mode) {
      recorder.SetEnabled(mode != kBaseline);
      std::vector<Row> rows = stream.NewLineitems(batch);
      obs::TraceContext ctx;
      if (mode == kOurs) db.set_trace(&ctx);
      double ms = TimeMs([&] {
        db.Insert("lineitem", rows);
        if (mode == kOurs) {
          std::ostringstream prom;
          obs::WritePrometheus(obs::Registry::Global(), prom);
          std::ostringstream json;
          obs::WriteSnapshotJson(obs::Registry::Global(), json);
        }
      });
      if (mode == kOurs) db.set_trace(nullptr);
      db.Delete("lineitem", LineitemKeys(rows));
      return ms;
    };

    std::vector<double> samples[kNumModes];
    for (int rep = 0; rep < kReps; ++rep) {
      for (int i = 0; i < kNumModes; ++i) {
        const Mode mode = static_cast<Mode>((rep + i) % kNumModes);
        samples[mode].push_back(measure(mode));
      }
    }
    const double baseline_ms = Median(samples[kBaseline]);
    const double recorder_ms = Median(samples[kRecorder]);
    const double ours_ms = Median(samples[kOurs]);

    auto pct = [&](double ms) {
      return baseline_ms > 0 ? (ms / baseline_ms - 1.0) * 100.0 : 0.0;
    };
    char rec_pct[32], ours_pct[32];
    std::snprintf(rec_pct, sizeof(rec_pct), "%+.1f%%", pct(recorder_ms));
    std::snprintf(ours_pct, sizeof(ours_pct), "%+.1f%%", pct(ours_ms));
    PrintRow({FormatCount(batch), FormatMs(baseline_ms), FormatMs(recorder_ms),
              FormatMs(ours_ms), rec_pct, ours_pct});
    report.BeginRow();
    report.Count("batch_rows", batch);
    report.Num("baseline_ms", baseline_ms);
    report.Num("recorder_ms", recorder_ms);
    report.Num("ours_ms", ours_ms);
    report.Num("recorder_overhead_pct", pct(recorder_ms));
    report.Num("ours_overhead_pct", pct(ours_ms));
  }

  recorder.SetEnabled(recorder_was_enabled);
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

// Serving under maintenance: read latency of the ViewSnapshot path while
// a refresh storm rewrites V3 behind it (DESIGN.md §17).
//
// Each batch size runs the same mixed workload twice. The writer stages
// single-row lineitem inserts against a kThreshold V3 with a tiny trip
// threshold and a 1ms background worker, so consolidated replays fire
// continuously. The difference is the reader thread running alongside:
//
//   snapshot  AcquireSnapshot: pin the last published
//             generation, never touch the maintenance mutex except for
//             the opportunistic try_lock catch-up. This is the gated
//             column — its p99 is what the generation design buys, and a
//             read path that starts blocking on maintenance again shows
//             up here as a ~10ms p99 jump.
//   fresh     ReadView: block, drain the backlog, publish. The
//             contrast column — read-your-writes pays the refresh it
//             forces, so its p99 tracks refresh cost, not snapshot cost.
//
// Rows are keyed (workload, batch_rows); only the snapshot rows carry
// ours_ms, so tools/bench_gate gates the snapshot path and skips the
// fresh contrast rows. After every storm, outside its timed region, the
// worker stops, V3 catches up, and the bench exits 1 unless V3 equals
// its recomputation.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>
#include <vector>

#include "baseline/recompute.h"
#include "bench_util.h"
#include "ivm/database.h"
#include "tpch/views.h"

namespace ojv {
namespace bench {
namespace {

double Percentile(std::vector<double> sorted_or_not, double p) {
  if (sorted_or_not.empty()) return 0.0;
  std::sort(sorted_or_not.begin(), sorted_or_not.end());
  const size_t n = sorted_or_not.size();
  size_t index = static_cast<size_t>(p / 100.0 * static_cast<double>(n));
  if (index >= n) index = n - 1;
  return sorted_or_not[index];
}

std::vector<Row> LineitemKeys(const std::vector<Row>& rows) {
  std::vector<Row> keys;
  keys.reserve(rows.size());
  for (const Row& row : rows) {
    keys.push_back(Row{row[0], row[3]});  // (l_orderkey, l_linenumber)
  }
  return keys;
}

struct ReadStats {
  std::vector<double> latencies_ms;
  int64_t reads = 0;
  int64_t generations = 0;  // distinct generation numbers observed
};

int Run(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  std::printf("TPC-H SF=%.3f, V3 under kThreshold + 1ms worker\n",
              options.scale_factor);

  tpch::DbgenOptions gen_options;
  gen_options.scale_factor = options.scale_factor;
  gen_options.seed = options.seed;
  tpch::Dbgen dbgen(gen_options);

  Database db;
  tpch::CreateSchema(db.catalog());
  dbgen.Populate(db.catalog());
  db.CreateMaterializedView(tpch::MakeV3(*db.catalog()));

  deferred::ThresholdConfig threshold;
  threshold.max_pending_rows = 8;  // trip every few statements: a storm
  db.SetRefreshPolicy("v3", deferred::RefreshPolicy::kThreshold, threshold);
  db.StartBackgroundRefresh(std::chrono::milliseconds(1));

  tpch::RefreshStream stream(db.catalog(), &dbgen, options.seed);

  // Publish the populated baseline before any reader starts.
  db.ReadView("v3");

  // One storm pass: the writer stages `rows` one statement at a time
  // while a reader thread runs `read` in a loop; returns what the reader
  // measured.
  auto storm = [&](const std::vector<Row>& rows,
                   const std::function<ViewSnapshot()>& read) {
    ReadStats stats;
    stats.latencies_ms.reserve(1 << 16);
    std::atomic<bool> done{false};
    std::thread reader([&] {
      uint64_t last_generation = 0;
      while (!done.load(std::memory_order_acquire)) {
        auto start = std::chrono::steady_clock::now();
        ViewSnapshot snap = read();
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        if (!snap.valid()) continue;
        stats.latencies_ms.push_back(ms);
        ++stats.reads;
        if (snap.generation() != last_generation) {
          ++stats.generations;
          last_generation = snap.generation();
        }
      }
    });
    // Pace the writer at every trip's worth of statements: on a
    // single-core host an unpaced writer loop holds the maintenance
    // mutex continuously, starving both the background worker (no
    // refresh would overlap the readers) and the fresh-read contrast.
    int64_t staged = 0;
    for (const Row& row : rows) {
      db.Insert("lineitem", {row});
      if (++staged % 16 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    done.store(true, std::memory_order_release);
    reader.join();
    return stats;
  };

  // Self-check after a storm: with the worker stopped and the backlog
  // drained, V3 must equal its recomputation.
  auto check = [&](int64_t batch, const char* mode) {
    db.StopBackgroundRefresh();
    db.Refresh("v3");
    const ViewMaintainer* v3 = db.GetView("v3");
    std::string diff;
    if (!ViewMatchesRecompute(*db.catalog(), v3->view_def(), v3->view(),
                              &diff)) {
      std::fprintf(stderr,
                   "bench_serve: SELF-CHECK FAILED after the %s storm at %lld "
                   "rows: %s\n",
                   mode, static_cast<long long>(batch),
                   diff.substr(0, 2000).c_str());
      std::exit(1);
    }
    db.StartBackgroundRefresh(std::chrono::milliseconds(1));
  };

  JsonReport report("serve", options);
  PrintHeader(
      "V3 serving under a refresh storm: snapshot reads vs fresh reads",
      {"Rows", "Mode", "Reads", "Gens", "p50", "p99", "Refreshes"});
  for (int64_t batch : options.batches) {
    std::vector<Row> rows = stream.NewLineitems(batch);
    const int64_t refreshes_before = db.RefreshState("v3").refreshes;
    ReadStats snapshot_stats = storm(
        rows, [&] { return db.AcquireSnapshot("v3"); });
    const int64_t snapshot_refreshes =
        db.RefreshState("v3").refreshes - refreshes_before;
    check(batch, "snapshot");
    const double snap_p50 = Percentile(snapshot_stats.latencies_ms, 50);
    const double snap_p99 = Percentile(snapshot_stats.latencies_ms, 99);
    PrintRow({FormatCount(batch), "snapshot",
              FormatCount(snapshot_stats.reads),
              FormatCount(snapshot_stats.generations), FormatMs(snap_p50),
              FormatMs(snap_p99), FormatCount(snapshot_refreshes)});

    // Reset the base table (and drain) before the fresh-read pass so
    // both passes storm over the same data.
    db.Delete("lineitem", LineitemKeys(rows));
    db.Refresh("v3");

    rows = stream.NewLineitems(batch);
    const int64_t fresh_before = db.RefreshState("v3").refreshes;
    ReadStats fresh_stats = storm(
        rows, [&] { return db.ReadView("v3"); });
    const int64_t fresh_refreshes =
        db.RefreshState("v3").refreshes - fresh_before;
    check(batch, "fresh");
    const double fresh_p50 = Percentile(fresh_stats.latencies_ms, 50);
    const double fresh_p99 = Percentile(fresh_stats.latencies_ms, 99);
    PrintRow({FormatCount(batch), "fresh", FormatCount(fresh_stats.reads),
              FormatCount(fresh_stats.generations), FormatMs(fresh_p50),
              FormatMs(fresh_p99), FormatCount(fresh_refreshes)});

    report.BeginRow();
    report.Str("workload", "snapshot");
    report.Count("batch_rows", batch);
    report.Count("reads", snapshot_stats.reads);
    report.Count("generations", snapshot_stats.generations);
    report.Count("refreshes", snapshot_refreshes);
    report.Num("p50_ms", snap_p50);
    report.Num("ours_ms", snap_p99);  // the gated column: snapshot p99

    report.BeginRow();
    report.Str("workload", "fresh");
    report.Count("batch_rows", batch);
    report.Count("reads", fresh_stats.reads);
    report.Count("generations", fresh_stats.generations);
    report.Count("refreshes", fresh_refreshes);
    report.Num("p50_ms", fresh_p50);
    report.Num("p99_ms", fresh_p99);  // contrast only: not gated

    db.Delete("lineitem", LineitemKeys(rows));
    db.Refresh("v3");
  }
  db.StopBackgroundRefresh();
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

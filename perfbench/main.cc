// End-to-end benchmark of the ojv Database facade on TPC-H SF 0.05.
//
//   perfbench --workload <oltp_immediate|deferred_batch|serve_fresh_read>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]
//
// --trace 0 times a single-client closed loop through ojv::Database for
// --seconds and reports the end-to-end metrics, their times scaled to a
// reference host speed (host_speed.h). --trace 1 runs a fixed
// number of ops through the facade untraced and, op by op beside it,
// through each layer's public functions with a span around every call
// (replay.h), and reports the per-layer metrics. Both modes
// check every view against the recompute oracle; the traced mode also
// checks that the replay ends with the facade's view contents. The last
// line of stdout is one JSON object; the exit code is nonzero when any
// op failed or any check did not hold. --trace-out <path> writes the
// traced run's spans as a Chrome trace. See README.md for the metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baseline/recompute.h"
#include "host_speed.h"
#include "ivm/database.h"
#include "metrics.h"
#include "replay.h"
#include "tpch/tpch_schema.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr double kScaleFactor = 0.05;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Args {
  Workload workload = Workload::kOltpImmediate;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // traced mode: Chrome trace file to write
};

bool ParseArgs(int argc, char** argv, Args* args) {
  const std::map<std::string, Workload> workloads = {
      {"oltp_immediate", Workload::kOltpImmediate},
      {"deferred_batch", Workload::kDeferredBatch},
      {"serve_fresh_read", Workload::kServeFreshRead}};
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      auto it = workloads.find(value);
      if (it == workloads.end()) return false;
      args->workload = it->second;
      args->workload_name = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload_name.empty() && args->seconds > 0;
}

// The traced mode replays a fixed prefix of the stream so its exact
// counters repeat run to run: ten write cycles, 800 statements with
// their 12 refreshes, or ten serve cycles.
int64_t TracedOps(Workload workload) {
  switch (workload) {
    case Workload::kOltpImmediate:
      return 500;
    case Workload::kDeferredBatch:
      return 812;
    case Workload::kServeFreshRead:
      return 220;
  }
  return 0;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::unique_ptr<ojv::Database> BuildDatabase(Workload workload,
                                             ojv::tpch::Dbgen* dbgen) {
  auto db = std::make_unique<ojv::Database>();
  ojv::tpch::CreateSchema(db->catalog());
  dbgen->Populate(db->catalog());
  for (ojv::ViewDef def : WorkloadViews(workload, *db->catalog())) {
    const std::string name = def.name();
    db->CreateMaterializedView(std::move(def));
    if (Deferred(workload)) {
      db->SetRefreshPolicy(name, ojv::deferred::RefreshPolicy::kOnDemand);
    }
  }
  return db;
}

/// Runs one op through the facade; false when it failed (statement
/// error, a rejected row, or an invalid snapshot).
bool ApplyToFacade(ojv::Database* db, const Op& op) {
  auto landed = [&](const ojv::Database::StatementResult& r) {
    return r.ok() && r.rows_rejected == 0 &&
           r.rows_affected == static_cast<int64_t>(op.rows.size());
  };
  switch (op.type) {
    case OpType::kInsert:
      return landed(db->Insert(op.table, op.rows));
    case OpType::kDelete:
      return landed(db->Delete(op.table, op.rows));
    case OpType::kUpdate:
      return landed(db->Update(op.table, op.rows, op.new_rows));
    case OpType::kRefresh:
      for (const std::string& view : op.views) db->Refresh(view);
      return true;
    case OpType::kRead: {
      std::vector<ojv::ViewSnapshot> pinned;
      for (const std::string& view : op.views) {
        pinned.push_back(db->ReadView(view));
      }
      return std::all_of(pinned.begin(), pinned.end(),
                         [](const ojv::ViewSnapshot& s) { return s.valid(); });
    }
  }
  return false;
}

/// The correctness gate: deferred views catch up, then every view must
/// equal a from-scratch recomputation.
bool FacadeMatchesOracle(ojv::Database* db, Workload workload) {
  bool ok = true;
  for (ojv::ViewMaintainer* view : db->Views()) {
    const std::string& name = view->view_def().name();
    if (Deferred(workload)) db->Refresh(name);
    std::string diff;
    if (!ojv::ViewMatchesRecompute(*db->catalog(), view->view_def(),
                                   view->view(), &diff)) {
      std::fprintf(stderr, "oracle mismatch on %s: %s\n", name.c_str(),
                   diff.substr(0, 2000).c_str());
      ok = false;
    }
  }
  return ok;
}

/// Prints one op type's median and the highest percentile with at least
/// ten samples beyond it, with the sample count and kind mix.
void PrintOpType(const Samples& s, OpType type) {
  const int t = static_cast<int>(type);
  const size_t n = s.ms[t].size();
  if (n == 0) return;
  std::printf("  %-8s n=%-6zu %s_p50_ms=%.4f ms", OpTypeName(type), n,
              OpTypeName(type), Percentile(s.ms[t], 50));
  if (n >= 1000) {
    std::printf("  %s_p99_ms=%.4f ms", OpTypeName(type),
                Percentile(s.ms[t], 99));
  } else if (n >= 100) {
    std::printf("  %s_p90_ms=%.4f ms", OpTypeName(type),
                Percentile(s.ms[t], 90));
  }
  std::printf("  [");
  for (const auto& [kind, count] : s.kinds[t]) {
    std::printf(" %s=%.0f%%", kind.c_str(),
                100.0 * static_cast<double>(count) / static_cast<double>(n));
  }
  std::printf(" ]\n");
}

int RunTimed(const Args& args) {
  constexpr int kSetups = 3;
  std::vector<double> setup_s;
  ojv::tpch::DbgenOptions gen_options;
  gen_options.scale_factor = kScaleFactor;
  ojv::tpch::Dbgen dbgen(gen_options);
  std::unique_ptr<ojv::Database> db;
  // Host speed is sampled right after each set-up for setup_s, and
  // between the timed ops for the op metrics. (Samples right after the
  // previous database was freed were erratic; the kernel also runs
  // faster after a set-up than among ops, so each phase has its own
  // factor.)
  HostSpeed speed;
  for (int i = 0; i < kSetups; ++i) {
    db.reset();
    const auto start = Clock::now();
    db = BuildDatabase(args.workload, &dbgen);
    setup_s.push_back(MsSince(start) / 1e3);
    for (int k = 0; k < 10; ++k) speed.Sample();
  }
  size_t setup_speed_samples = 0;
  const double setup_factor = speed.TakeFactor(&setup_speed_samples);

  auto gen_start = Clock::now();
  Stream stream(args.workload, args.seed, &dbgen, *db->catalog());
  double gen_ms = MsSince(gen_start);
  int64_t failed = 0;
  for (int64_t i = 0; i < stream.warmup_ops(); ++i) {
    gen_start = Clock::now();
    const Op op = stream.Next(*db->catalog());
    gen_ms += MsSince(gen_start);
    if (!ApplyToFacade(db.get(), op)) ++failed;
  }

  Samples samples;
  const double cpu_start = CpuSeconds();
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(args.seconds);
  while (Clock::now() < deadline) {
    gen_start = Clock::now();
    const Op op = stream.Next(*db->catalog());
    gen_ms += MsSince(gen_start);
    const auto start = Clock::now();
    const bool ok = ApplyToFacade(db.get(), op);
    samples.Add(op, MsSince(start), ok);
    speed.MaybeSample();
  }
  const double loop_cpu_s = CpuSeconds() - cpu_start;
  size_t loop_speed_samples = 0;
  const double loop_factor = speed.TakeFactor(&loop_speed_samples);
  // The reference table stays resident from before the first set-up on;
  // it is the benchmark's memory, not the library's.
  const double peak_rss_mb =
      PeakRssMb() - static_cast<double>(speed.resident_bytes()) / (1 << 20);
  failed += samples.failed;
  const bool correct = FacadeMatchesOracle(db.get(), args.workload);

  std::printf("perfbench %s seed=%llu sf=%g seconds=%g ops=%lld "
              "stream_digest=%016llx\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), kScaleFactor,
              args.seconds, static_cast<long long>(samples.count()),
              static_cast<unsigned long long>(stream.digest()));
  for (int t = 0; t < kNumOpTypes; ++t) {
    PrintOpType(samples, static_cast<OpType>(t));
  }
  const double ops_per_s =
      static_cast<double>(samples.count()) / (samples.busy_ms / 1e3);
  const int64_t attempted = stream.warmup_ops() + samples.count();
  const double error_rate =
      static_cast<double>(failed) / static_cast<double>(attempted);
  std::printf("  ops_per_s=%.2f op/s  setup_s=%.3f s (median of %d)  "
              "peak_rss_mb=%.1f MB  error_rate=%g  gen_s=%.3f s  "
              "busy_s=%.3f s  loop_cpu_s=%.3f s  oracle=%s\n",
              ops_per_s, Median(setup_s), kSetups, peak_rss_mb, error_rate,
              gen_ms / 1e3, samples.busy_ms / 1e3, loop_cpu_s,
              correct ? "ok" : "MISMATCH");
  std::printf("  host_speed loop_factor=%.4f (median of %zu samples)  "
              "setup_factor=%.4f (median of %zu): the result line divides "
              "the op times above by loop_factor and setup_s by "
              "setup_factor\n",
              loop_factor, loop_speed_samples, setup_factor,
              setup_speed_samples);

  // The gated metrics exist on every workload: statement medians, the
  // median of the op the workload is built around, throughput, set-up
  // time and memory.
  const OpType key_op = args.workload == Workload::kDeferredBatch
                           ? OpType::kRefresh
                           : args.workload == Workload::kServeFreshRead
                                 ? OpType::kRead
                                 : OpType::kUpdate;
  auto p50 = [&](OpType type) {
    return Median(samples.ms[static_cast<int>(type)]) / loop_factor;
  };
  Report report;
  report.Add("insert_p50_ms", p50(OpType::kInsert), "ms");
  report.Add("delete_p50_ms", p50(OpType::kDelete), "ms");
  report.Add("key_op_p50_ms", p50(key_op), "ms");
  report.Add("ops_per_s", ops_per_s * loop_factor, "op/s");
  report.Add("setup_s", Median(setup_s) / setup_factor, "s");
  report.Add("peak_rss_mb", peak_rss_mb, "MB");
  report.PrintJson(correct, attempted, failed);
  return correct && failed == 0 ? 0 : 1;
}

int RunTraced(const Args& args) {
  ojv::tpch::DbgenOptions gen_options;
  gen_options.scale_factor = kScaleFactor;
  ojv::tpch::Dbgen dbgen(gen_options);
  const int64_t n = TracedOps(args.workload);

  // The untraced facade and the traced replay run side by side, op by
  // op in a random order (a fixed alternation would line up with the
  // op cycle), so both see the same allocator and cache state. Their
  // latency difference is tracing cost minus the facade bookkeeping the
  // replay skips (locking, statistics, scheduler and admission upkeep).
  std::unique_ptr<ojv::Database> db = BuildDatabase(args.workload, &dbgen);
  SpanLog spans;
  ojv::obs::TraceContext trace;
  const int64_t trace_epoch_ns = SteadyNowNs() - 1000 * trace.NowMicros();
  Replay replay(args.workload, &dbgen, &spans, &trace);
  Stream stream(args.workload, args.seed, &dbgen, *db->catalog());
  int64_t failed = 0;  // ops that failed on the facade or the replay
  for (int64_t i = 0; i < stream.warmup_ops(); ++i) {
    const Op op = stream.Next(*db->catalog());
    const bool facade_ok = ApplyToFacade(db.get(), op);
    if (!replay.Apply(op) || !facade_ok) ++failed;
  }

  std::vector<Op> ops;
  Samples facade;
  std::vector<ojv::obs::TraceEvent> library;
  ojv::Rng order(args.seed);
  replay.set_tracing(true);
  for (int64_t i = 0; i < n; ++i) {
    ops.push_back(stream.Next(*db->catalog()));
    const Op& op = ops.back();
    const bool replay_first = order.Chance(0.5);
    const bool replay_ok = replay_first && replay.Apply(op);
    const auto start = Clock::now();
    const bool ok = ApplyToFacade(db.get(), op);
    facade.Add(op, MsSince(start), ok);
    if (!(replay_first ? replay_ok : replay.Apply(op)) || !ok) ++failed;
    // Move the op's spans out so the context stays small: the planner's
    // feedback loop copies the whole context on every maintenance call.
    const int offset = static_cast<int>(library.size());
    for (ojv::obs::TraceEvent& ev : trace.Snapshot()) {
      if (ev.parent >= 0) ev.parent += offset;
      library.push_back(std::move(ev));
    }
    trace.Clear();
  }
  replay.set_tracing(false);

  bool correct = FacadeMatchesOracle(db.get(), args.workload);
  replay.CatchUp();
  bool replay_matches = true;
  for (ojv::ViewMaintainer* view : db->Views()) {
    const std::string& name = view->view_def().name();
    if (!replay.view(name).view().AsRelation().Equals(
            view->view().AsRelation())) {
      std::fprintf(stderr, "replay diverged from the facade on %s\n",
                   name.c_str());
      replay_matches = false;
    }
  }
  correct = correct && replay_matches;

  std::printf("perfbench %s seed=%llu sf=%g traced ops=%lld "
              "stream_digest=%016llx spans=%zu replay=%s oracle=%s\n",
              args.workload_name.c_str(),
              static_cast<unsigned long long>(args.seed), kScaleFactor,
              static_cast<long long>(n),
              static_cast<unsigned long long>(stream.digest()),
              spans.spans().size() + library.size(),
              replay_matches ? "matches" : "DIVERGED",
              correct ? "ok" : "MISMATCH");
  Report report;
  AddLayerMetrics(spans, library, replay, facade, ops, &report);
  if (!args.trace_out.empty() &&
      !WriteTrace(args.trace_out, spans, library, trace_epoch_ns)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
  }
  report.PrintJson(correct, stream.warmup_ops() + n, failed);
  return correct && failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <oltp_immediate|deferred_batch|"
                 "serve_fresh_read> --seed <n> --seconds <s> --trace <0|1> "
                 "[--trace-out <path>]\n");
    return 2;
  }
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunTimed(args);
}

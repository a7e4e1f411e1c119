// Skewed streams through deferred refresh: eager (kImmediate) vs
// on-demand (kOnDemand) maintenance under Zipf-distributed join keys.
//
// Setup: V = R lo S on r_a = s_a, where S.s_a is Zipf-distributed so a
// handful of key values carry most of the join fanout. The workload is
// a stream of single-row R statements (inserts, churn deletes, and
// join-key updates) whose r_a values draw from the same Zipf
// distribution — i.e. most statements join a hot key.
//
// The immediate view pays one full delta pipeline per statement; for a
// hot key that includes the large fanout apply. The on-demand view only
// stages each statement in the delta log, and the final fresh ReadView
// consolidates the backlog to its net effect (N touches of one row fold
// to at most one delete + one insert) and replays it once. Both times
// cover every statement plus that one read, so the comparison is end to
// end, and both views must end byte-identical (self-checked).
//
// The control row (zipf_s = 0) runs the same stream over a flat, wide
// key domain where every key has a small fanout.
//
// Row convention in the JSON report: batch_rows = int(100 * zipf_s), so
// the skew section's rows are keyed 0 / 80 / 120 for the gate.

#include <algorithm>
#include <cstdlib>
#include <functional>

#include "bench_util.h"
#include "ivm/database.h"

namespace ojv {
namespace bench {
namespace {

constexpr int64_t kCounterpartRows = 6000;  // |S|
constexpr int64_t kSeedRRows = 200;
constexpr int kOps = 300;

struct StreamResult {
  double uniform_ms = 0;  // kImmediate, statements + final fresh read
  double ours_ms = 0;     // kOnDemand, statements + final fresh read
  double refresh_ms = 0;  // the refresh that read ran
  int64_t consolidated_rows = 0;
  int64_t cancelled_rows = 0;
};

/// R(r_id, r_a, r_v) lo S(s_id, s_a, s_v) on r_a = s_a.
ViewDef MakeSkewView(const Catalog& catalog) {
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kLeftOuter, RelExpr::Scan("R"), RelExpr::Scan("S"),
      ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column("R", "r_a"),
                          ScalarExpr::Column("S", "s_a")));
  std::vector<ColumnRef> output = {{"R", "r_id"}, {"R", "r_a"}, {"R", "r_v"},
                                   {"S", "s_id"}, {"S", "s_a"}, {"S", "s_v"}};
  return ViewDef("v_skew", tree, std::move(output), catalog);
}

/// Runs the statement stream once; `zipf_s` shapes both S's key
/// distribution and the stream's key draws. `domain` controls the
/// per-key fanout: the skewed rows use a small domain (hot keys carry
/// thousands of S rows); the control uses a wide one.
StreamResult RunStream(double zipf_s, int64_t domain, uint64_t seed) {
  Database immediate;
  Database on_demand;
  Database* dbs[] = {&immediate, &on_demand};
  for (Database* db : dbs) {
    db->catalog()->CreateTable("R",
                               Schema({{"r_id", ValueType::kInt64, false},
                                       {"r_a", ValueType::kInt64, true},
                                       {"r_v", ValueType::kInt64, true}}),
                               {"r_id"});
    db->catalog()->CreateTable("S",
                               Schema({{"s_id", ValueType::kInt64, false},
                                       {"s_a", ValueType::kInt64, true},
                                       {"s_v", ValueType::kInt64, true}}),
                               {"s_id"});
  }

  Rng rng(seed);
  const ZipfDistribution zipf(domain, zipf_s);
  for (int64_t i = 0; i < kCounterpartRows; ++i) {
    const Row row = {Value::Int64(i), Value::Int64(zipf.Sample(&rng)),
                     Value::Int64(rng.Uniform(0, 999))};
    for (Database* db : dbs) db->catalog()->GetTable("S")->Insert(row);
  }
  std::vector<int64_t> live_keys;
  for (int64_t i = 0; i < kSeedRRows; ++i) {
    const Row row = {Value::Int64(i), Value::Int64(zipf.Sample(&rng)),
                     Value::Int64(rng.Uniform(0, 999))};
    for (Database* db : dbs) db->catalog()->GetTable("R")->Insert(row);
    live_keys.push_back(i);
  }

  for (Database* db : dbs) {
    db->CreateMaterializedView(MakeSkewView(*db->catalog()));
  }
  on_demand.SetRefreshPolicy("v_skew", deferred::RefreshPolicy::kOnDemand);

  StreamResult result;
  const Table& r = *immediate.catalog()->GetTable("R");

  // Deletes and updates target the most recently touched rows — the
  // OLTP hot-tail pattern. That is where consolidation pays: N touches
  // of one row fold to at most one delete + one insert at the refresh,
  // while the immediate view pays the key's full join fanout on every
  // single touch.
  constexpr size_t kHotTail = 16;
  auto pick_recent = [&] {
    const size_t span = std::min(kHotTail, live_keys.size());
    return live_keys.size() - 1 -
           static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(span) - 1));
  };

  int64_t next_key = kSeedRRows;
  for (int op = 0; op < kOps; ++op) {
    const int choice = static_cast<int>(rng.Uniform(0, 9));
    std::function<void(Database*)> statement;
    if (choice < 2 && live_keys.size() > 8) {
      // Churn delete of a recently inserted row (cancels entirely when
      // its insert is still pending in the delta log).
      const size_t pick = pick_recent();
      const Row key = {Value::Int64(live_keys[pick])};
      live_keys.erase(live_keys.begin() + static_cast<ptrdiff_t>(pick));
      statement = [key](Database* db) { db->Delete("R", {key}); };
    } else if (choice < 5 && live_keys.size() > 8) {
      // Join-key update of a recently touched row (repeated updates of
      // one row net to a single update pair).
      const size_t pick = pick_recent();
      const Row key = {Value::Int64(live_keys[pick])};
      Row updated = *r.FindByKey(key);
      updated[1] = Value::Int64(zipf.Sample(&rng));
      statement = [key, updated](Database* db) {
        db->Update("R", {key}, {updated});
      };
    } else {
      const Row row = {Value::Int64(next_key), Value::Int64(zipf.Sample(&rng)),
                       Value::Int64(rng.Uniform(0, 999))};
      live_keys.push_back(next_key++);
      statement = [row](Database* db) { db->Insert("R", {row}); };
    }
    result.uniform_ms += TimeMs([&] { statement(&immediate); });
    result.ours_ms += TimeMs([&] { statement(&on_demand); });
  }

  ViewSnapshot eager, deferred_read;
  result.uniform_ms += TimeMs([&] { eager = immediate.ReadView("v_skew"); });
  result.ours_ms +=
      TimeMs([&] { deferred_read = on_demand.ReadView("v_skew"); });
  const deferred::ViewRefreshState state = on_demand.RefreshState("v_skew");
  result.refresh_ms = state.refresh_micros / 1000.0;
  result.consolidated_rows = state.consolidated_rows;
  result.cancelled_rows = state.cancelled_rows;

  // Self-check: the whole comparison is void if the deferred path
  // diverged.
  if (!eager.relation().Equals(deferred_read.relation())) {
    std::fprintf(stderr,
                 "bench_skew: SELF-CHECK FAILED at zipf_s=%.1f — on-demand "
                 "and immediate views differ\n",
                 zipf_s);
    std::exit(1);
  }
  return result;
}

int Run(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  std::printf(
      "skewed streams: %d single-row R statements against |S|=%lld, then "
      "one fresh read\n",
      kOps, static_cast<long long>(kCounterpartRows));

  JsonReport report("skew", options);
  PrintHeader("Immediate vs on-demand maintenance under Zipf join keys",
              {"Zipf s", "Immediate", "OnDemand", "Refresh", "Speedup",
               "Consolidated", "Cancelled"});

  struct Config {
    double s;
    int64_t domain;
    const char* label;
  };
  // Control first: flat keys over a wide domain.
  const Config configs[] = {
      {0.0, 512, "control"}, {0.8, 64, "moderate"}, {1.2, 64, "heavy"}};
  for (const Config& config : configs) {
    StreamResult result = RunStream(config.s, config.domain, options.seed);
    const double speedup = result.uniform_ms / std::max(result.ours_ms, 1e-3);
    char sbuf[16], speedup_buf[16];
    std::snprintf(sbuf, sizeof(sbuf), "%.1f", config.s);
    std::snprintf(speedup_buf, sizeof(speedup_buf), "%.1fx", speedup);
    PrintRow({sbuf, FormatMs(result.uniform_ms), FormatMs(result.ours_ms),
              FormatMs(result.refresh_ms), speedup_buf,
              FormatCount(result.consolidated_rows),
              FormatCount(result.cancelled_rows)});

    report.BeginRow();
    report.Str("workload", config.label);
    report.Count("batch_rows", static_cast<int64_t>(config.s * 100));
    report.Num("zipf_s", config.s);
    report.Count("key_domain", config.domain);
    report.Num("uniform_ms", result.uniform_ms);
    report.Num("ours_ms", result.ours_ms);
    report.Num("refresh_ms", result.refresh_ms);
    report.Num("speedup", speedup);
    report.Count("consolidated_rows", result.consolidated_rows);
    report.Count("cancelled_rows", result.cancelled_rows);
  }

  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

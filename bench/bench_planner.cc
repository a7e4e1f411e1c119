// Cost-based delta planning on a skewed workload where the static
// (syntactic) join order is pathological. The view joins a delta table D
// against an expansive table B (every D row matches ~50 B rows) and a
// selective table S (~1% of D rows have a match); the view definition
// lists B first, so the static left-deep order materializes a ~50·|Δ|
// intermediate before S filters it to ~0.5·|Δ|. The cost-based planner
// sees the ndv mismatch in the statistics catalog and joins S first,
// keeping every intermediate at or below |Δ|. The static order is timed
// by evaluating the maintainer's static delta expression
// (ComputePrimaryDeltaRelation) on the same batch.

#include "bench_util.h"
#include "common/rng.h"
#include "ivm/maintainer.h"

namespace ojv {
namespace bench {
namespace {

struct Workload {
  int64_t d_rows;
  int64_t b_groups;
  int64_t b_fanout;
  int64_t s_rows;
  int64_t s_domain;
};

void CreateTables(Catalog* catalog, const Workload& w, Rng* rng) {
  catalog->CreateTable(
      "D",
      Schema({ColumnDef{"d_id", ValueType::kInt64, false},
              ColumnDef{"d_b", ValueType::kInt64, true},
              ColumnDef{"d_s", ValueType::kInt64, true}}),
      {"d_id"});
  catalog->CreateTable(
      "B",
      Schema({ColumnDef{"b_id", ValueType::kInt64, false},
              ColumnDef{"b_seq", ValueType::kInt64, false},
              ColumnDef{"b_pay", ValueType::kInt64, true}}),
      {"b_id", "b_seq"});
  catalog->CreateTable(
      "S",
      Schema({ColumnDef{"s_id", ValueType::kInt64, false},
              ColumnDef{"s_pay", ValueType::kInt64, true}}),
      {"s_id"});

  Table* d = catalog->GetTable("D");
  for (int64_t i = 0; i < w.d_rows; ++i) {
    d->Insert(Row{Value::Int64(i), Value::Int64(rng->Uniform(0, w.b_groups)),
                  Value::Int64(rng->Uniform(0, w.s_domain))});
  }
  Table* b = catalog->GetTable("B");
  for (int64_t g = 0; g < w.b_groups; ++g) {
    for (int64_t s = 0; s < w.b_fanout; ++s) {
      b->Insert(Row{Value::Int64(g), Value::Int64(s),
                    Value::Int64(rng->Uniform(0, 1000))});
    }
  }
  Table* t = catalog->GetTable("S");
  for (int64_t i = 0; i < w.s_rows; ++i) {
    // s_id values spread across [0, s_domain) so ~s_rows/s_domain of D
    // rows find a match.
    t->Insert(Row{Value::Int64(i * (w.s_domain / w.s_rows)),
                  Value::Int64(rng->Uniform(0, 1000))});
  }
}

ViewDef MakeView(const Catalog& catalog) {
  auto eq = [](const char* t1, const char* c1, const char* t2,
               const char* c2) {
    return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                               ScalarExpr::Column(t2, c2));
  };
  // B joins first in the definition — the static order inherits that.
  RelExprPtr db = RelExpr::Join(JoinKind::kInner, RelExpr::Scan("D"),
                                RelExpr::Scan("B"), eq("D", "d_b", "B", "b_id"));
  RelExprPtr tree = RelExpr::Join(JoinKind::kInner, db, RelExpr::Scan("S"),
                                  eq("D", "d_s", "S", "s_id"));
  std::vector<ColumnRef> output = {{"D", "d_id"},  {"D", "d_b"},
                                   {"D", "d_s"},   {"B", "b_id"},
                                   {"B", "b_seq"}, {"B", "b_pay"},
                                   {"S", "s_id"},  {"S", "s_pay"}};
  return ViewDef("planner_skew", tree, output, catalog);
}

int Run(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  Workload w;
  w.d_rows = static_cast<int64_t>(400000 * options.scale_factor);
  if (w.d_rows < 2000) w.d_rows = 2000;
  w.b_groups = 200;
  w.b_fanout = 50;
  w.s_rows = 1000;
  w.s_domain = 100000;
  std::printf(
      "planner skew workload: |D|=%lld, |B|=%lld (fanout %lld), "
      "|S|=%lld over domain %lld (~%.1f%% match)\n",
      static_cast<long long>(w.d_rows),
      static_cast<long long>(w.b_groups * w.b_fanout),
      static_cast<long long>(w.b_fanout), static_cast<long long>(w.s_rows),
      static_cast<long long>(w.s_domain),
      100.0 * static_cast<double>(w.s_rows) /
          static_cast<double>(w.s_domain));

  Rng rng(options.seed);
  Catalog catalog;
  CreateTables(&catalog, w, &rng);
  ViewDef view = MakeView(catalog);

  ViewMaintainer costed_m(&catalog, view);
  costed_m.InitializeView();

  Table* d = catalog.GetTable("D");
  int64_t next_key = w.d_rows + 1;
  auto make_batch = [&](int64_t batch) {
    std::vector<Row> rows;
    rows.reserve(static_cast<size_t>(batch));
    for (int64_t i = 0; i < batch; ++i) {
      rows.push_back(Row{Value::Int64(next_key++),
                         Value::Int64(rng.Uniform(0, w.b_groups)),
                         Value::Int64(rng.Uniform(0, w.s_domain))});
    }
    return rows;
  };
  auto undo = [&](const std::vector<Row>& inserted) {
    std::vector<Row> keys;
    keys.reserve(inserted.size());
    for (const Row& row : inserted) keys.push_back(Row{row[0]});
    costed_m.OnDelete("D", ApplyBaseDelete(d, keys));
  };

  // Warm-up: lets the costed maintainer build its statistics catalog and
  // plan cache outside the measured region (a real system amortizes the
  // one-time scan the same way).
  {
    std::vector<Row> inserted = ApplyBaseInsert(d, make_batch(16));
    costed_m.OnInsert("D", inserted);
    undo(inserted);
  }
  const opt::PlanCacheEntry* entry =
      costed_m.plan_entry("D", /*is_insert=*/true, PlanPolicy::kDefault);
  std::printf("static order: [B,S] (definition order)\n");
  std::printf("costed order: [%s]%s\n",
              entry != nullptr ? entry->plan.order.c_str() : "?",
              entry != nullptr && entry->plan.reordered ? " (reordered)" : "");

  JsonReport report("planner", options);
  PrintHeader("Cost-based vs static join order (insertions into D)",
              {"Rows", "StaticPrim", "CostedPrim", "Costed",
               "Static/Costed"});
  for (int64_t batch : options.batches) {
    std::vector<Row> inserted = ApplyBaseInsert(d, make_batch(batch));
    Relation delta_t(Evaluator::SchemaFor(*d));
    for (const Row& row : inserted) delta_t.Add(row);
    Relation static_primary;
    double static_primary_ms = TimeMs([&] {
      static_primary = costed_m.ComputePrimaryDeltaRelation("D", delta_t);
    });
    MaintenanceStats costed_stats;
    double costed_ms =
        TimeMs([&] { costed_stats = costed_m.OnInsert("D", inserted); });
    if (static_primary.size() != costed_stats.primary_rows) {
      std::fprintf(stderr, "static and costed primary deltas differ\n");
      return 1;
    }
    const double costed_primary_ms = costed_stats.primary_micros / 1000.0;
    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1fx",
                  static_primary_ms / std::max(costed_primary_ms, 1e-3));
    PrintRow({FormatCount(batch), FormatMs(static_primary_ms),
              FormatMs(costed_primary_ms), FormatMs(costed_ms), ratio});
    report.BeginRow();
    report.Count("batch_rows", batch);
    report.Num("static_primary_ms", static_primary_ms);
    report.Num("costed_primary_ms", costed_primary_ms);
    report.Num("costed_ms", costed_ms);
    report.Obj("stages_costed", StagesJson(costed_stats));
    undo(inserted);
  }
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

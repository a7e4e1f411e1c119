// Reproduces Figure 5(a): maintenance cost for view V3 when inserting
// 60 / 600 / 6,000 / 60,000 lineitem rows, for
//   - the core (inner-join) view, maintained incrementally,
//   - the outer-join view with our algorithm,
//   - the outer-join view with the Griffin–Kumar baseline.
//
// The paper's claim to reproduce: the outer-join view costs essentially
// the same as the core view, while GK deteriorates with batch size.
// All three maintainers observe the same base-table updates; after each
// measurement the batch is deleted again so every batch size starts from
// the same database state. The bench exits 1 if, after a batch, our V3
// differs from Griffin–Kumar's.

#include "baseline/griffin_kumar.h"
#include "bench_util.h"
#include "ivm/maintainer.h"
#include "tpch/views.h"

namespace ojv {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  std::printf("TPC-H SF=%.3f (lineitem rows: ~%lld)\n", options.scale_factor,
              static_cast<long long>(options.scale_factor * 6000000));
  TpchInstance instance(options);
  Table* lineitem = instance.catalog.GetTable("lineitem");

  ViewDef v3 = tpch::MakeV3(instance.catalog);
  ViewDef core = v3.CoreView(instance.catalog);

  ViewMaintainer core_maintainer(&instance.catalog, core,
                                 MaintenanceOptions());
  ViewMaintainer oj_maintainer(&instance.catalog, v3, MaintenanceOptions());
  GriffinKumarMaintainer gk_maintainer(&instance.catalog, v3);
  core_maintainer.InitializeView();
  oj_maintainer.InitializeView();
  gk_maintainer.InitializeView();

  JsonReport report("fig5_insert", options);
  PrintHeader("Figure 5(a): V3 maintenance cost, lineitem insertions",
              {"Rows", "CoreView", "OuterJoin", "OJ(GK)", "GK/ours"});
  for (int64_t batch : options.batches) {
    std::vector<Row> rows = instance.refresh->NewLineitems(batch);
    std::vector<Row> inserted = ApplyBaseInsert(lineitem, rows);

    MaintenanceStats oj_stats;
    double core_ms =
        TimeMs([&] { core_maintainer.OnInsert("lineitem", inserted); });
    double oj_ms =
        TimeMs([&] { oj_stats = oj_maintainer.OnInsert("lineitem", inserted); });
    double gk_ms =
        TimeMs([&] { gk_maintainer.OnInsert("lineitem", inserted); });

    // Self-check, outside the timed region: the row is void if our
    // outer-join maintenance and Griffin-Kumar disagree on V3.
    if (!oj_maintainer.view().AsRelation().Equals(
            gk_maintainer.view().AsRelation())) {
      std::fprintf(stderr,
                   "bench_fig5_insert: SELF-CHECK FAILED at %lld rows: the "
                   "outer-join and Griffin-Kumar V3 differ\n",
                   static_cast<long long>(batch));
      return 1;
    }

    char ratio[32];
    std::snprintf(ratio, sizeof(ratio), "%.1fx", gk_ms / std::max(oj_ms, 1e-3));
    PrintRow({FormatCount(batch), FormatMs(core_ms), FormatMs(oj_ms),
              FormatMs(gk_ms), ratio});
    report.BeginRow();
    report.Count("batch_rows", batch);
    report.Num("core_ms", core_ms);
    report.Num("ours_ms", oj_ms);
    report.Num("gk_ms", gk_ms);
    report.Obj("stages", StagesJson(oj_stats));

    // Restore the database and all three views.
    std::vector<Row> keys;
    keys.reserve(inserted.size());
    for (const Row& row : inserted) {
      keys.push_back(Row{row[0], row[3]});  // (l_orderkey, l_linenumber)
    }
    std::vector<Row> deleted = ApplyBaseDelete(lineitem, keys);
    core_maintainer.OnDelete("lineitem", deleted);
    oj_maintainer.OnDelete("lineitem", deleted);
    gk_maintainer.OnDelete("lineitem", deleted);
  }
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

// Reproduces Figure 5(b): maintenance cost for view V3 when deleting
// 60 / 600 / 6,000 / 60,000 lineitem rows (core view vs. our outer-join
// maintenance vs. Griffin–Kumar). The paper reports GK "much worse than
// ours" for deletions. Each batch is re-inserted after measurement so
// batch sizes are independent. The bench exits 1 if, after a batch, our
// V3 differs from Griffin–Kumar's.

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

  JsonReport report("fig5_delete", options);
  PrintHeader("Figure 5(b): V3 maintenance cost, lineitem deletions",
              {"Rows", "CoreView", "OuterJoin", "OJ(GK)", "GK/ours"});
  for (int64_t batch : options.batches) {
    std::vector<Row> keys = instance.refresh->PickLineitemDeleteKeys(batch);
    std::vector<Row> deleted = ApplyBaseDelete(lineitem, keys);

    MaintenanceStats oj_stats;
    double core_ms =
        TimeMs([&] { core_maintainer.OnDelete("lineitem", deleted); });
    double oj_ms =
        TimeMs([&] { oj_stats = oj_maintainer.OnDelete("lineitem", deleted); });
    double gk_ms =
        TimeMs([&] { gk_maintainer.OnDelete("lineitem", deleted); });

    // Self-check, outside the timed region: the row is void if our
    // outer-join maintenance and Griffin-Kumar disagree on V3.
    if (!oj_maintainer.view().AsRelation().Equals(
            gk_maintainer.view().AsRelation())) {
      std::fprintf(stderr,
                   "bench_fig5_delete: SELF-CHECK FAILED at %lld rows: the "
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

    // Restore.
    std::vector<Row> reinserted = ApplyBaseInsert(lineitem, deleted);
    core_maintainer.OnInsert("lineitem", reinserted);
    oj_maintainer.OnInsert("lineitem", reinserted);
    gk_maintainer.OnInsert("lineitem", reinserted);
  }
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

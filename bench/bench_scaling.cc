// Experiment E10 (beyond the paper): how maintenance cost scales with
// database size at a fixed batch size. The paper fixes SF and varies the
// batch; here the batch is fixed (600 lineitems) and SF grows. Ours
// should stay roughly flat (cost tracks |ΔT| plus index probes); GK
// scales with the database (its fix-ups recompute subtrees).

#include "baseline/griffin_kumar.h"
#include "bench_util.h"
#include "ivm/maintainer.h"
#include "tpch/views.h"

namespace ojv {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  const int64_t batch = 600;
  std::printf("fixed batch: %lld lineitem inserts\n",
              static_cast<long long>(batch));

  JsonReport report("scaling", options);
  PrintHeader("Scaling with database size (E10)",
              {"SF", "Lineitems", "OuterJoin", "OJ(GK)"});
  for (double sf : {0.01, 0.02, 0.05, 0.1}) {
    BenchOptions scaled = options;
    scaled.scale_factor = sf;
    TpchInstance instance(scaled);
    Table* lineitem = instance.catalog.GetTable("lineitem");

    ViewDef v3 = tpch::MakeV3(instance.catalog);
    ViewMaintainer ours(&instance.catalog, v3, MaintenanceOptions());
    GriffinKumarMaintainer gk(&instance.catalog, v3);
    ours.InitializeView();
    gk.InitializeView();

    std::vector<Row> inserted =
        ApplyBaseInsert(lineitem, instance.refresh->NewLineitems(batch));
    double ours_ms = TimeMs([&] { ours.OnInsert("lineitem", inserted); });
    double gk_ms = TimeMs([&] { gk.OnInsert("lineitem", inserted); });

    char sf_text[16];
    std::snprintf(sf_text, sizeof(sf_text), "%.2f", sf);
    PrintRow({sf_text, FormatCount(lineitem->size()), FormatMs(ours_ms),
              FormatMs(gk_ms)});
    report.BeginRow();
    report.Num("scale_factor", sf);
    report.Count("lineitem_rows", lineitem->size());
    report.Num("ours_ms", ours_ms);
    report.Num("gk_ms", gk_ms);
  }
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

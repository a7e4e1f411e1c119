// Experiment E10 (beyond the paper): how maintenance cost scales with
// database size at a fixed batch size. The paper fixes SF and varies the
// batch; here the batch is fixed (600 lineitems) and SF grows. Ours
// should stay roughly flat (cost tracks |ΔT| plus index probes); GK
// scales with the database (its fix-ups recompute subtrees).
//
// Ours is the median of kReps insert maintenance calls, each followed
// by an untimed delete of the same batch that restores the database.
// GK is timed once, on one more batch that both maintainers then see.
// The bench exits 1 if, after that batch, our V3 differs from GK's.

#include "baseline/griffin_kumar.h"
#include "bench_util.h"
#include "ivm/maintainer.h"
#include "tpch/views.h"

namespace ojv {
namespace bench {
namespace {

constexpr int kReps = 5;

int Run(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  const int64_t batch = 600;
  std::printf("fixed batch: %lld lineitem inserts, ours median of %d reps\n",
              static_cast<long long>(batch), kReps);

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

    // GK sits these reps out: each one's delete undoes its insert, so
    // GK's view still matches the base tables afterwards.
    std::vector<double> samples;
    for (int rep = 0; rep < kReps; ++rep) {
      std::vector<Row> inserted =
          ApplyBaseInsert(lineitem, instance.refresh->NewLineitems(batch));
      samples.push_back(TimeMs([&] { ours.OnInsert("lineitem", inserted); }));
      std::vector<Row> deleted =
          ApplyBaseDelete(lineitem, LineitemKeys(inserted));
      ours.OnDelete("lineitem", deleted);
    }
    const double ours_ms = Median(samples);

    std::vector<Row> inserted =
        ApplyBaseInsert(lineitem, instance.refresh->NewLineitems(batch));
    ours.OnInsert("lineitem", inserted);
    double gk_ms = TimeMs([&] { gk.OnInsert("lineitem", inserted); });
    if (!ours.view().AsRelation().Equals(gk.view().AsRelation())) {
      std::fprintf(stderr,
                   "bench_scaling: SELF-CHECK FAILED at SF %.2f: the "
                   "outer-join and Griffin-Kumar V3 differ\n",
                   sf);
      return 1;
    }

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

// Initial materialization cost: full computation of the paper's views
// (outer-join view, its inner-join core, and the aggregated dashboard).
// Not a paper figure, but the baseline every incremental number in
// EXPERIMENTS.md is implicitly compared against: maintenance only pays
// off if it beats re-running this.

#include "bench_util.h"
#include "ivm/aggregate_view.h"
#include "ivm/maintainer.h"
#include "tpch/views.h"

namespace ojv {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  std::printf("TPC-H SF=%.3f\n", options.scale_factor);
  TpchInstance instance(options);

  JsonReport report("view_init", options);
  PrintHeader("Initial materialization", {"View", "Rows", "Time"});

  auto run_view = [&](const std::string& label, const ViewDef& def) {
    ViewMaintainer maintainer(&instance.catalog, def, MaintenanceOptions());
    double ms = TimeMs([&] { maintainer.InitializeView(); });
    PrintRow({label, FormatCount(maintainer.view().size()), FormatMs(ms)});
    report.BeginRow();
    report.Str("view", label);
    report.Count("rows", maintainer.view().size());
    report.Num("init_ms", ms);
  };

  run_view("v3", tpch::MakeV3(instance.catalog));
  run_view("v3_core", tpch::MakeV3(instance.catalog).CoreView(instance.catalog));
  run_view("oj_view", tpch::MakeOjView(instance.catalog));
  {
    std::vector<ColumnRef> group_by = {{"customer", "c_mktsegment"}};
    std::vector<AggregateSpec> aggs = {
        {AggregateSpec::Kind::kCountStar, {}, "rows"},
        {AggregateSpec::Kind::kSum, {"lineitem", "l_extendedprice"},
         "revenue"}};
    AggViewMaintainer agg(&instance.catalog, tpch::MakeV3(instance.catalog),
                          group_by, aggs);
    double ms = TimeMs([&] { agg.InitializeView(); });
    PrintRow({"v3_by_segment", FormatCount(agg.num_groups()), FormatMs(ms)});
    report.BeginRow();
    report.Str("view", "v3_by_segment");
    report.Count("rows", agg.num_groups());
    report.Num("init_ms", ms);
  }
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

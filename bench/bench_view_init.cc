// Initial materialization cost: full computation of the paper's views
// (outer-join view, its inner-join core, and the aggregated dashboard).
// Not a paper figure, but the baseline every incremental number in
// EXPERIMENTS.md is implicitly compared against: maintenance only pays
// off if it beats re-running this.
//
// The views stay alive side by side, as a database's views do, and the
// Peak RSS column is the process's peak after each initialization. At
// the end every row view is checked against RecomputeView (the unpruned
// evaluation); a mismatch fails the run.

#include "baseline/recompute.h"
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
  std::printf("peak RSS after loading: %.1f MB\n", PeakRssMb());

  JsonReport report("view_init", options);
  PrintHeader("Initial materialization",
              {"View", "Rows", "Time", "Peak RSS"});

  std::vector<std::pair<std::string, std::unique_ptr<ViewMaintainer>>> views;
  auto run_view = [&](const std::string& label,
                      std::unique_ptr<ViewMaintainer> maintainer) {
    double ms = TimeMs([&] { maintainer->InitializeView(); });
    const double rss_mb = PeakRssMb();
    const int64_t rows =
        maintainer->is_aggregate()
            ? static_cast<AggViewMaintainer&>(*maintainer).num_groups()
            : maintainer->view().size();
    char rss[32];
    std::snprintf(rss, sizeof(rss), "%.1f MB", rss_mb);
    PrintRow({label, FormatCount(rows), FormatMs(ms), rss});
    report.BeginRow();
    report.Str("view", label);
    report.Count("rows", rows);
    report.Num("init_ms", ms);
    report.Num("peak_rss_mb", rss_mb);
    views.emplace_back(label, std::move(maintainer));
  };

  const Catalog* catalog = &instance.catalog;
  run_view("v3", std::make_unique<ViewMaintainer>(
                     catalog, tpch::MakeV3(instance.catalog)));
  run_view("v3_core",
           std::make_unique<ViewMaintainer>(
               catalog,
               tpch::MakeV3(instance.catalog).CoreView(instance.catalog)));
  run_view("oj_view", std::make_unique<ViewMaintainer>(
                          catalog, tpch::MakeOjView(instance.catalog)));
  std::vector<ColumnRef> group_by = {{"customer", "c_mktsegment"}};
  std::vector<AggregateSpec> aggs = {
      {AggregateSpec::Kind::kCountStar, {}, "rows"},
      {AggregateSpec::Kind::kSum, {"lineitem", "l_extendedprice"},
       "revenue"}};
  run_view("v3_by_segment",
           std::make_unique<AggViewMaintainer>(
               catalog, tpch::MakeV3(instance.catalog), group_by, aggs));

  // Self-check, outside the timed region.
  for (const auto& [label, maintainer] : views) {
    if (maintainer->is_aggregate()) continue;
    std::string diff;
    if (!ViewMatchesRecompute(instance.catalog, maintainer->view_def(),
                              maintainer->view(), &diff)) {
      std::fprintf(stderr,
                   "bench_view_init: SELF-CHECK FAILED: %s differs from "
                   "RecomputeView: %s\n",
                   label.c_str(), diff.substr(0, 2000).c_str());
      return 1;
    }
  }
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

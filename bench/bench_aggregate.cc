// Experiment E8 (paper §3.3 extension): maintenance of an aggregated
// outer-join view (revenue by market segment over V3) versus full
// recomputation of the aggregate.

#include "bench_util.h"
#include "ivm/aggregate_view.h"
#include "tpch/views.h"

namespace ojv {
namespace bench {
namespace {

// The oracle check after each maintenance call, outside the timers.
bool Matches(const AggViewMaintainer& agg, int64_t batch, const char* op) {
  std::string diff;
  if (agg.MatchesRecompute(1e-9, &diff)) return true;
  std::fprintf(stderr, "%s of %lld rows: groups differ from recompute: %s\n",
               op, static_cast<long long>(batch), diff.c_str());
  return false;
}

int Run(int argc, char** argv) {
  BenchOptions options = BenchOptions::Parse(argc, argv);
  std::printf("TPC-H SF=%.3f\n", options.scale_factor);
  TpchInstance instance(options);
  Table* lineitem = instance.catalog.GetTable("lineitem");

  std::vector<ColumnRef> group_by = {{"customer", "c_mktsegment"},
                                     {"orders", "o_orderdate"}};
  std::vector<AggregateSpec> aggs = {
      {AggregateSpec::Kind::kCountStar, {}, "rows"},
      {AggregateSpec::Kind::kCount, {"lineitem", "l_orderkey"}, "lineitems"},
      {AggregateSpec::Kind::kSum, {"lineitem", "l_extendedprice"}, "revenue"},
  };
  AggViewMaintainer agg(&instance.catalog, tpch::MakeV3(instance.catalog),
                        group_by, aggs);
  double init_ms = TimeMs([&] { agg.InitializeView(); });
  std::printf("groups: %lld (initial aggregation: %s)\n",
              static_cast<long long>(agg.num_groups()),
              FormatMs(init_ms).c_str());

  JsonReport report("aggregate", options);
  PrintHeader("Aggregated V3: incremental vs recompute, lineitem inserts",
              {"Rows", "Incremental", "Recompute", "Speedup"});
  for (int64_t batch : options.batches) {
    std::vector<Row> inserted =
        ApplyBaseInsert(lineitem, instance.refresh->NewLineitems(batch));
    double inc_ms = TimeMs([&] { agg.OnInsert("lineitem", inserted); });
    double re_ms = TimeMs([&] { (void)agg.Recompute(); });
    if (!Matches(agg, batch, "insert")) return 1;
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  re_ms / std::max(inc_ms, 1e-3));
    PrintRow({FormatCount(batch), FormatMs(inc_ms), FormatMs(re_ms),
              speedup});
    report.BeginRow();
    report.Count("batch_rows", batch);
    report.Num("incremental_ms", inc_ms);
    report.Num("recompute_ms", re_ms);

    std::vector<Row> keys;
    for (const Row& row : inserted) keys.push_back(Row{row[0], row[3]});
    std::vector<Row> deleted = ApplyBaseDelete(lineitem, keys);
    agg.OnDelete("lineitem", deleted);
    if (!Matches(agg, batch, "delete")) return 1;
  }
  report.Write();
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ojv

int main(int argc, char** argv) { return ojv::bench::Run(argc, argv); }

#ifndef OJV_PERFBENCH_METRICS_H_
#define OJV_PERFBENCH_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "replay.h"
#include "workload.h"

namespace perfbench {

/// Linear-interpolated percentile (p in [0, 100]) of unsorted samples.
double Percentile(std::vector<double> v, double p);
inline double Median(std::vector<double> v) {
  return Percentile(std::move(v), 50);
}

/// Per-op-type latency samples of one facade run.
struct Samples {
  std::vector<double> ms[kNumOpTypes];
  std::map<std::string, int64_t> kinds[kNumOpTypes];
  std::vector<double> per_op_ms;  // in op order
  double busy_ms = 0;             // summed op latencies
  int64_t failed = 0;

  void Add(const Op& op, double latency_ms, bool ok);
  int64_t count() const { return static_cast<int64_t>(per_op_ms.size()); }
};

/// The metrics object of the result line.
class Report {
 public:
  void Add(std::string name, double value, std::string unit);
  /// Prints {"correct", "attempted", "failed", "metrics"} on one line.
  void PrintJson(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Adds every per-layer metric (README.md lists them) from the traced
/// replay: the benchmark's spans, the library's exec.* spans (`library`,
/// in record order), the replay's exact counters, and the facade
/// latencies of the same `ops`. Prints, per op type, the span coverage
/// and the traced replay's time relative to the facade's.
void AddLayerMetrics(const SpanLog& log,
                     const std::vector<ojv::obs::TraceEvent>& library,
                     const Replay& replay, const Samples& facade,
                     const std::vector<Op>& ops, Report* report);

/// Writes the benchmark's spans and the library's as one Chrome trace
/// (chrome://tracing, ui.perfetto.dev). `epoch_ns` is the steady-clock
/// instant the library trace's micros count from.
bool WriteTrace(const std::string& path, const SpanLog& log,
                const std::vector<ojv::obs::TraceEvent>& library,
                int64_t epoch_ns);

}  // namespace perfbench

#endif  // OJV_PERFBENCH_METRICS_H_

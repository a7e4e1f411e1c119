#ifndef OJV_OBS_METRICS_H_
#define OJV_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace ojv {
namespace obs {

/// Escapes a string for embedding in a JSON string literal. Shared by
/// every obs JSON writer (metric registry, trace export).
std::string JsonEscape(const std::string& s);

/// Monotonic process counter. Add is a single relaxed fetch_add, safe
/// from any thread. Counters are owned by the Registry and live for the
/// process; call sites cache the reference in a function-local static:
///
///   static obs::Counter& c =
///       obs::Registry::Global().GetCounter("ojv.exec.join.rows_in");
///   c.Add(n);
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Point-in-time level. Unlike Counter, a Gauge can go down: Set stores
/// the current level (log depth, pending rows, hot-phase flag), Add
/// applies a delta for call sites that track increments/decrements.
/// Both are single relaxed atomics, safe from any thread. Same caching
/// idiom as Counter:
///
///   static obs::Gauge& g =
///       obs::Registry::Global().GetGauge("ojv.deferred.log_depth_rows");
///   g.Set(static_cast<int64_t>(entries_.size()));
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Builds a per-instance metric name in the Prometheus label idiom:
/// LabeledMetric("ojv.deferred.view.staleness_micros", "view", "mv1")
/// => `ojv.deferred.view.staleness_micros{view="mv1"}`. The registry
/// treats the whole string as an opaque key; the exporter splits the
/// base name from the label block so Prometheus sees one metric family
/// with a `view` label rather than one family per view. Label values
/// are escaped per the exposition format (backslash, quote, newline).
std::string LabeledMetric(const std::string& base, const std::string& label_key,
                          const std::string& label_value);

/// Lock-free histogram over power-of-two buckets: bucket b counts
/// samples in [2^(b-1), 2^b) (bucket 0 holds <= 0 and 1... precisely,
/// samples v <= 1). Good to a factor of two, which is all the
/// maintenance latencies need, and Record is two relaxed fetch_adds.
/// Negative samples are clamped to 0 at record time: they would land in
/// bucket 0 anyway but drive sum_ negative, corrupting means (durations
/// can come out negative under wall-clock adjustment).
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  /// Bucket index for a sample: 0 for v <= 1, else 1 + floor(log2(v-1)),
  /// clamped to the last bucket.
  static int BucketOf(int64_t value);
  /// Upper bound of bucket b (the value PercentileBound reports).
  static int64_t BucketUpperBound(int b) {
    return b == 0 ? 1 : int64_t{1} << b;
  }

  void Record(int64_t value);

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  int64_t bucket(int b) const {
    return buckets_[static_cast<size_t>(b)].load(std::memory_order_relaxed);
  }
  /// Upper bound of the bucket containing the p-th percentile
  /// (0 < p <= 100) of the recorded samples; 0 when empty.
  int64_t PercentileBound(double p) const;
  void Reset();

 private:
  std::array<std::atomic<int64_t>, kBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
};

/// Snapshot of one histogram, for reports.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t p50 = 0;
  int64_t p99 = 0;
};

/// Process-wide metric registry, sharded by name hash so concurrent
/// first-time lookups from different subsystems do not serialize on one
/// mutex. Lookups after the first are expected to be cached by the call
/// site (see Counter); the maps' node stability makes the returned
/// references permanent. Names follow `ojv.<subsystem>.<metric>`.
class Registry {
 public:
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// All counters (name, value), sorted by name. Zero-valued counters
  /// are included: a registered-but-zero counter is information.
  std::vector<std::pair<std::string, int64_t>> CounterSnapshot() const;
  std::vector<std::pair<std::string, int64_t>> GaugeSnapshot() const;
  std::vector<std::pair<std::string, HistogramSnapshot>> HistogramSnapshots()
      const;

  /// JSON object fragment:
  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  void WriteJson(std::ostream& out) const;

  /// Zeroes every metric (tests). References stay valid — entries are
  /// reset, never erased.
  void ResetForTest();

 private:
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Histogram> histograms;
  };
  Shard& ShardFor(const std::string& name);

  std::array<Shard, kShards> shards_;
};

}  // namespace obs
}  // namespace ojv

#endif  // OJV_OBS_METRICS_H_

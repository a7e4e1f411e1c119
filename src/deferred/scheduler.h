#ifndef OJV_DEFERRED_SCHEDULER_H_
#define OJV_DEFERRED_SCHEDULER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace ojv {
namespace deferred {

/// When a registered view is brought up to date.
enum class RefreshPolicy {
  /// Maintained inside every statement (the eager default; matches the
  /// paper's trigger setup and the behavior of the seed repo).
  kImmediate,
  /// Refreshed only at read time (Database::ReadView /
  /// ReadAggregateRelation) or by an explicit Refresh/RefreshAll call.
  kOnDemand,
  /// Refreshed automatically once pending rows or staleness exceed the
  /// view's ThresholdConfig — inline after the offending statement, or
  /// by the background worker when one is running.
  kThreshold,
};

const char* RefreshPolicyName(RefreshPolicy policy);

/// Limits for RefreshPolicy::kThreshold. A view is due when either limit
/// is reached; a limit of 0 disables that trigger.
struct ThresholdConfig {
  int64_t max_pending_rows = 1024;
  double max_staleness_micros = 0;
};

/// Outcome of one refresh of one view.
struct RefreshStats {
  int64_t raw_entries = 0;        // log entries consumed
  int64_t consolidated_rows = 0;  // rows handed to the maintainer
  int64_t cancelled_rows = 0;     // entries removed by net-effect folding
  int64_t update_pairs = 0;       // delete+reinsert pairs (§6 caveat 1)
  int64_t tables_touched = 0;
  double staleness_micros = 0;    // age of the oldest entry consumed
  double refresh_micros = 0;      // consolidation + maintenance, wall
  double maintenance_micros = 0;  // inside the maintainers only
};

/// Per-view refresh bookkeeping: policy, thresholds, cumulative and
/// most-recent refresh stats.
struct ViewRefreshState {
  RefreshPolicy policy = RefreshPolicy::kImmediate;
  ThresholdConfig config;
  int64_t refreshes = 0;
  int64_t raw_entries = 0;
  int64_t consolidated_rows = 0;
  int64_t cancelled_rows = 0;
  double refresh_micros = 0;
  RefreshStats last;
};

/// Decides which views are refreshed when. The scheduler holds no
/// references into the database — Database feeds it pending/staleness
/// figures and executes the refreshes it asks for.
class RefreshScheduler {
 public:
  void SetPolicy(const std::string& view, RefreshPolicy policy,
                 ThresholdConfig config = ThresholdConfig());
  void Forget(const std::string& view);

  RefreshPolicy policy(const std::string& view) const;
  bool IsDeferred(const std::string& view) const;
  bool HasDeferredViews() const;
  std::vector<std::string> DeferredViews() const;

  /// True when a kThreshold view has crossed either limit.
  bool Due(const std::string& view, int64_t pending_rows,
           double staleness_micros) const;

  void RecordRefresh(const std::string& view, const RefreshStats& stats);
  const ViewRefreshState* state(const std::string& view) const;

  /// Fixed-width table of per-view refresh counters (mirrors
  /// Database::StatsReport).
  std::string Report() const;

 private:
  std::map<std::string, ViewRefreshState> views_;
};

/// Owns the worker thread of the background refresh mode: runs `drain`
/// every `interval`, or sooner when Notify is called (the statement path
/// pings it instead of refreshing inline). `drain` must do its own
/// locking against the statement path.
class BackgroundRefresher {
 public:
  BackgroundRefresher() = default;
  ~BackgroundRefresher() { Stop(); }

  BackgroundRefresher(const BackgroundRefresher&) = delete;
  BackgroundRefresher& operator=(const BackgroundRefresher&) = delete;

  void Start(std::chrono::milliseconds interval, std::function<void()> drain);
  void Notify();
  void Stop();
  bool running() const { return thread_.joinable(); }

 private:
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool pinged_ = false;
};

}  // namespace deferred
}  // namespace ojv

#endif  // OJV_DEFERRED_SCHEDULER_H_

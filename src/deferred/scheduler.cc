#include "deferred/scheduler.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/check.h"
#include "obs/metrics.h"

namespace ojv {
namespace deferred {

const char* RefreshPolicyName(RefreshPolicy policy) {
  switch (policy) {
    case RefreshPolicy::kImmediate:
      return "immediate";
    case RefreshPolicy::kOnDemand:
      return "on-demand";
    case RefreshPolicy::kThreshold:
      return "threshold";
  }
  return "?";
}

void RefreshScheduler::SetPolicy(const std::string& view, RefreshPolicy policy,
                                 ThresholdConfig config) {
  ViewRefreshState& state = views_[view];
  state.policy = policy;
  state.config = config;
}

void RefreshScheduler::Forget(const std::string& view) { views_.erase(view); }

RefreshPolicy RefreshScheduler::policy(const std::string& view) const {
  auto it = views_.find(view);
  return it == views_.end() ? RefreshPolicy::kImmediate : it->second.policy;
}

bool RefreshScheduler::IsDeferred(const std::string& view) const {
  return policy(view) != RefreshPolicy::kImmediate;
}

bool RefreshScheduler::HasDeferredViews() const {
  for (const auto& [view, state] : views_) {
    if (state.policy != RefreshPolicy::kImmediate) return true;
  }
  return false;
}

std::vector<std::string> RefreshScheduler::DeferredViews() const {
  std::vector<std::string> out;
  for (const auto& [view, state] : views_) {
    if (state.policy != RefreshPolicy::kImmediate) out.push_back(view);
  }
  return out;
}

bool RefreshScheduler::Due(const std::string& view, int64_t pending_rows,
                           double staleness_micros) const {
  auto it = views_.find(view);
  if (it == views_.end() || it->second.policy != RefreshPolicy::kThreshold) {
    return false;
  }
  if (pending_rows <= 0) return false;
  const ThresholdConfig& config = it->second.config;
  if (config.max_pending_rows > 0 && pending_rows >= config.max_pending_rows) {
    return true;
  }
  return config.max_staleness_micros > 0 &&
         staleness_micros >= config.max_staleness_micros;
}

void RefreshScheduler::RecordRefresh(const std::string& view,
                                     const RefreshStats& stats) {
  ViewRefreshState& state = views_[view];
  ++state.refreshes;
  state.raw_entries += stats.raw_entries;
  state.consolidated_rows += stats.consolidated_rows;
  state.cancelled_rows += stats.cancelled_rows;
  state.refresh_micros += stats.refresh_micros;
  state.last = stats;
  obs::Registry& reg = obs::Registry::Global();
  static obs::Counter& refreshes = reg.GetCounter("ojv.deferred.refreshes");
  static obs::Counter& raw = reg.GetCounter("ojv.deferred.raw_entries");
  static obs::Counter& net = reg.GetCounter("ojv.deferred.consolidated_rows");
  static obs::Counter& cancelled =
      reg.GetCounter("ojv.deferred.cancelled_rows");
  static obs::Counter& pairs = reg.GetCounter("ojv.deferred.update_pairs");
  static obs::Histogram& latency =
      reg.GetHistogram("ojv.deferred.refresh_micros");
  static obs::Histogram& staleness =
      reg.GetHistogram("ojv.deferred.staleness_micros");
  refreshes.Add(1);
  raw.Add(stats.raw_entries);
  net.Add(stats.consolidated_rows);
  cancelled.Add(stats.cancelled_rows);
  pairs.Add(stats.update_pairs);
  latency.Record(static_cast<int64_t>(stats.refresh_micros));
  staleness.Record(static_cast<int64_t>(stats.staleness_micros));
  // Per-view freshness series. Labeled names vary by view, so the
  // static-reference cache idiom does not apply; a registry lookup per
  // refresh is fine — refreshes are batch-scale events, not per-row.
  reg.GetCounter(obs::LabeledMetric("ojv.deferred.view.refreshes", "view",
                                    view))
      .Add(1);
  reg.GetGauge(obs::LabeledMetric("ojv.deferred.view.staleness_micros",
                                  "view", view))
      .Set(static_cast<int64_t>(stats.staleness_micros));
  reg.GetGauge(obs::LabeledMetric("ojv.deferred.view.refresh_micros", "view",
                                  view))
      .Set(static_cast<int64_t>(stats.refresh_micros));
}

const ViewRefreshState* RefreshScheduler::state(const std::string& view) const {
  auto it = views_.find(view);
  return it == views_.end() ? nullptr : &it->second;
}

std::string RefreshScheduler::Report() const {
  // The view column widens to the longest registered name, so long
  // names neither break alignment nor get truncated.
  size_t name_width = 4;  // "view"
  for (const auto& [view, s] : views_) {
    name_width = std::max(name_width, view.size());
  }
  std::ostringstream out;
  out << std::left << std::setw(static_cast<int>(name_width)) << "view" << ' '
      << std::setw(10) << "policy" << std::right << std::setw(10)
      << "refreshes" << std::setw(12) << "raw-rows" << std::setw(11)
      << "net-rows" << std::setw(12) << "cancelled" << std::setw(12)
      << "refresh-ms" << std::setw(13) << "staleness-ms" << '\n';
  out << std::fixed << std::setprecision(2);
  for (const auto& [view, s] : views_) {
    out << std::left << std::setw(static_cast<int>(name_width)) << view << ' '
        << std::setw(10) << RefreshPolicyName(s.policy) << std::right
        << std::setw(10) << s.refreshes << std::setw(12)
        << s.raw_entries << std::setw(11) << s.consolidated_rows
        << std::setw(12) << s.cancelled_rows << std::setw(12)
        << s.refresh_micros / 1000.0 << std::setw(13)
        << s.last.staleness_micros / 1000.0 << '\n';
  }
  return out.str();
}

void BackgroundRefresher::Start(std::chrono::milliseconds interval,
                                std::function<void()> drain) {
  OJV_CHECK(!thread_.joinable(), "background refresher already running");
  stop_ = false;
  pinged_ = false;
  thread_ = std::thread([this, interval, drain = std::move(drain)] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, interval, [this] { return stop_ || pinged_; });
      if (stop_) break;
      pinged_ = false;
      // Run the drain without holding our own mutex: it takes the
      // database's statement mutex and may run for a while.
      lock.unlock();
      drain();
      lock.lock();
    }
  });
}

void BackgroundRefresher::Notify() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    pinged_ = true;
  }
  cv_.notify_one();
}

void BackgroundRefresher::Stop() {
  if (!thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_one();
  thread_.join();
}

}  // namespace deferred
}  // namespace ojv

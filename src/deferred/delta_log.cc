#include "deferred/delta_log.h"

#include <algorithm>

#include "common/check.h"
#include "obs/metrics.h"

namespace ojv {
namespace deferred {
namespace {

/// First pending entry of a table deque: entries are in ascending seq
/// order, so binary-search past the consumer's high-water mark.
std::deque<DeltaEntry>::const_iterator FirstPending(
    const std::deque<DeltaEntry>& entries, uint64_t hwm) {
  return std::upper_bound(
      entries.begin(), entries.end(), hwm,
      [](uint64_t mark, const DeltaEntry& e) { return mark < e.seq; });
}

}  // namespace

uint64_t DeltaLog::Append(const std::string& table, DeltaOp op,
                          const std::vector<Row>& rows, bool update_pair) {
  std::deque<DeltaEntry>& dest = tables_[table];
  auto now = std::chrono::steady_clock::now();
  for (const Row& row : rows) {
    dest.push_back(DeltaEntry{next_seq_++, op, row, update_pair, now});
  }
  // The histogram keeps the depth *distribution* over appends; the
  // gauge is the live level (it also drops on TruncateConsumed, which
  // the append-only histogram cannot show).
  int64_t depth_now = size();
  static obs::Histogram& depth =
      obs::Registry::Global().GetHistogram("ojv.deferred.log_depth");
  depth.Record(depth_now);
  static obs::Gauge& depth_gauge =
      obs::Registry::Global().GetGauge("ojv.deferred.log_depth_rows");
  depth_gauge.Set(depth_now);
  return tail();
}

void DeltaLog::RegisterConsumer(const std::string& view) {
  high_water_[view] = tail();
}

void DeltaLog::UnregisterConsumer(const std::string& view) {
  high_water_.erase(view);
  TruncateConsumed();
}

bool DeltaLog::IsConsumer(const std::string& view) const {
  return high_water_.count(view) > 0;
}

uint64_t DeltaLog::high_water_mark(const std::string& view) const {
  auto it = high_water_.find(view);
  OJV_CHECK(it != high_water_.end(), "unknown delta-log consumer");
  return it->second;
}

std::map<std::string, std::vector<DeltaEntry>> DeltaLog::PendingFor(
    const std::string& view, const std::set<std::string>& tables) const {
  uint64_t hwm = high_water_mark(view);
  std::map<std::string, std::vector<DeltaEntry>> out;
  for (const auto& [table, entries] : tables_) {
    if (!tables.empty() && tables.count(table) == 0) continue;
    auto first = FirstPending(entries, hwm);
    if (first == entries.end()) continue;
    out[table].assign(first, entries.end());
  }
  return out;
}

int64_t DeltaLog::PendingRows(const std::string& view,
                              const std::set<std::string>& tables) const {
  uint64_t hwm = high_water_mark(view);
  int64_t total = 0;
  for (const auto& [table, entries] : tables_) {
    if (!tables.empty() && tables.count(table) == 0) continue;
    total += entries.end() - FirstPending(entries, hwm);
  }
  return total;
}

double DeltaLog::OldestPendingMicros(
    const std::string& view, const std::set<std::string>& tables) const {
  uint64_t hwm = high_water_mark(view);
  bool any = false;
  std::chrono::steady_clock::time_point oldest;
  for (const auto& [table, entries] : tables_) {
    if (!tables.empty() && tables.count(table) == 0) continue;
    auto first = FirstPending(entries, hwm);
    if (first == entries.end()) continue;
    if (!any || first->at < oldest) oldest = first->at;
    any = true;
  }
  if (!any) return 0;
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - oldest)
      .count();
}

void DeltaLog::AdvanceTo(const std::string& view, uint64_t seq) {
  auto it = high_water_.find(view);
  OJV_CHECK(it != high_water_.end(), "unknown delta-log consumer");
  if (seq > it->second) it->second = seq;
}

void DeltaLog::TruncateConsumed() {
  uint64_t min_hwm = tail();
  for (const auto& [view, hwm] : high_water_) {
    min_hwm = std::min(min_hwm, hwm);
  }
  for (auto it = tables_.begin(); it != tables_.end();) {
    std::deque<DeltaEntry>& entries = it->second;
    while (!entries.empty() && entries.front().seq <= min_hwm) {
      entries.pop_front();
    }
    it = entries.empty() ? tables_.erase(it) : std::next(it);
  }
  static obs::Gauge& depth_gauge =
      obs::Registry::Global().GetGauge("ojv.deferred.log_depth_rows");
  depth_gauge.Set(size());
}

int64_t DeltaLog::size() const {
  int64_t total = 0;
  for (const auto& [table, entries] : tables_) {
    total += static_cast<int64_t>(entries.size());
  }
  return total;
}

}  // namespace deferred
}  // namespace ojv

#ifndef OJV_DEFERRED_DELTA_LOG_H_
#define OJV_DEFERRED_DELTA_LOG_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "catalog/schema.h"

namespace ojv {
namespace deferred {

/// One staged base-table change. Inserts carry the inserted row, deletes
/// the full pre-image (the maintainers need complete deleted rows).
enum class DeltaOp : uint8_t { kInsert, kDelete };

struct DeltaEntry {
  uint64_t seq = 0;  // global statement-order position
  DeltaOp op = DeltaOp::kInsert;
  Row row;
  /// Set on the delete/insert halves of an UPDATE statement: the pair
  /// must never be maintained under foreign-key plans (§6 caveat 1),
  /// even when a refresh boundary separates the halves.
  bool update_pair = false;
  std::chrono::steady_clock::time_point at;
};

/// Append-only staging log of base-table changes, per table, consumed by
/// deferred views at refresh time.
///
/// Every consumer (a deferred view) tracks a high-water mark: the last
/// sequence number it has folded into its materialized contents. Entries
/// at or below every consumer's mark are garbage; TruncateConsumed drops
/// them so the log's footprint is bounded by the laziest consumer.
///
/// The log itself is not thread-safe; Database serializes access (the
/// background refresher and the statement path share Database's mutex).
class DeltaLog {
 public:
  /// Appends one entry per row (all from one statement) and returns the
  /// last sequence number assigned. Rows must already have been applied
  /// to the base table (same contract as the maintainers).
  uint64_t Append(const std::string& table, DeltaOp op,
                  const std::vector<Row>& rows, bool update_pair = false);

  /// Registers a consumer starting at the current tail (it has seen
  /// everything logged so far — deferred views are switched to deferred
  /// only when up to date).
  void RegisterConsumer(const std::string& view);
  void UnregisterConsumer(const std::string& view);
  bool IsConsumer(const std::string& view) const;
  bool HasConsumers() const { return !high_water_.empty(); }

  /// Last sequence number ever assigned (0 when nothing was logged).
  uint64_t tail() const { return next_seq_ - 1; }
  uint64_t high_water_mark(const std::string& view) const;

  /// Entries with seq > `seq` whose table is in `tables`, grouped by
  /// table in sequence order. An empty filter selects every table.
  std::map<std::string, std::vector<DeltaEntry>> EntriesAfter(
      uint64_t seq, const std::set<std::string>& tables) const;
  /// EntriesAfter(hwm(view), tables).
  std::map<std::string, std::vector<DeltaEntry>> PendingFor(
      const std::string& view, const std::set<std::string>& tables) const {
    return EntriesAfter(high_water_mark(view), tables);
  }

  /// Number of pending entries for `view` restricted to `tables`.
  int64_t PendingRows(const std::string& view,
                      const std::set<std::string>& tables) const;

  /// Age in microseconds of the oldest entry pending for `view` within
  /// `tables`; 0 when nothing is pending.
  double OldestPendingMicros(const std::string& view,
                             const std::set<std::string>& tables) const;

  /// Marks everything up to `seq` as consumed by `view`.
  void AdvanceTo(const std::string& view, uint64_t seq);

  /// Drops entries consumed by every registered consumer and the hold.
  void TruncateConsumed();

  /// Keeps every entry after `seq` through TruncateConsumed, whatever
  /// the consumers' marks, until ReleaseHold: an open transaction's
  /// entries are its undo record.
  void HoldAfter(uint64_t seq) { hold_after_ = seq; }
  void ReleaseHold() { hold_after_ = UINT64_MAX; }

  /// Entries currently held (across all tables).
  int64_t size() const;

 private:
  std::map<std::string, std::deque<DeltaEntry>> tables_;
  std::map<std::string, uint64_t> high_water_;
  uint64_t hold_after_ = UINT64_MAX;
  uint64_t next_seq_ = 1;
};

}  // namespace deferred
}  // namespace ojv

#endif  // OJV_DEFERRED_DELTA_LOG_H_

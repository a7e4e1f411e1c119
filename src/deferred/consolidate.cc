#include "deferred/consolidate.h"

#include <algorithm>

#include "common/check.h"

namespace ojv {
namespace deferred {

namespace {

/// Key-order comparison of unique-key tuples.
struct RowKeyLess {
  bool operator()(const Row& a, const Row& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      int c = a[i].SortCompare(b[i]);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

Row KeyOf(const Row& row, const std::vector<int>& key_positions) {
  Row key;
  key.reserve(key_positions.size());
  for (int p : key_positions) key.push_back(row[static_cast<size_t>(p)]);
  return key;
}

/// The per-key netting core of Consolidate: repeated touches of one key
/// collapse to at most one pre-image + one post-image (insert+delete
/// cancels, delete+reinsert folds to an update pair or cancels when
/// identical).
class NetFold {
 public:
  explicit NetFold(std::vector<int> key_positions)
      : key_positions_(std::move(key_positions)) {}

  /// Entries arrive in statement order, exactly like log entries.
  void AddInsert(const Row& row);
  void AddDelete(const Row& row);

  struct Net {
    std::vector<Row> deletes;  // net pre-images, key order
    std::vector<Row> inserts;  // net post-images, key order
    int64_t update_pairs = 0;
    int64_t cancelled = 0;
    int64_t raw_entries = 0;
  };

  /// Extracts the net effect and resets the fold.
  Net Take();

 private:
  struct NetState {
    bool has_old = false;  // pre-image deleted from the fold's pre-state
    bool has_new = false;  // post-image present in the fold's post-state
    Row old_row;
    Row new_row;
  };

  std::vector<int> key_positions_;
  std::map<Row, NetState, RowKeyLess> by_key_;
  int64_t raw_entries_ = 0;
};

void NetFold::AddInsert(const Row& row) {
  ++raw_entries_;
  NetState& state = by_key_[KeyOf(row, key_positions_)];
  // A second insert of a live key cannot be logged: the base table
  // rejects duplicate keys at statement time.
  OJV_CHECK(!state.has_new, "duplicate pending insert for one key");
  state.has_new = true;
  state.new_row = row;
}

void NetFold::AddDelete(const Row& row) {
  ++raw_entries_;
  NetState& state = by_key_[KeyOf(row, key_positions_)];
  if (state.has_new) {
    // Deleting a row inserted within the batch: the insert never
    // reaches the view. With a pre-image too, the key collapses back
    // to a pure delete of the original row.
    state.has_new = false;
    state.new_row.clear();
  } else {
    OJV_CHECK(!state.has_old, "duplicate pending delete for one key");
    state.has_old = true;
    state.old_row = row;
  }
}

NetFold::Net NetFold::Take() {
  Net net;
  net.raw_entries = raw_entries_;
  for (auto& [key, state] : by_key_) {
    if (state.has_old && state.has_new && state.old_row == state.new_row) {
      // delete + reinsert of the identical row: no net effect.
      continue;
    }
    if (state.has_old && state.has_new) ++net.update_pairs;
    if (state.has_old) net.deletes.push_back(std::move(state.old_row));
    if (state.has_new) net.inserts.push_back(std::move(state.new_row));
  }
  net.cancelled = net.raw_entries -
                  static_cast<int64_t>(net.deletes.size()) -
                  static_cast<int64_t>(net.inserts.size());
  by_key_.clear();
  raw_entries_ = 0;
  return net;
}

TableDelta ConsolidateTable(const std::string& table,
                            const std::vector<DeltaEntry>& entries,
                            const std::vector<int>& key_positions) {
  NetFold fold(key_positions);
  for (const DeltaEntry& entry : entries) {
    if (entry.op == DeltaOp::kInsert) {
      fold.AddInsert(entry.row);
    } else {
      fold.AddDelete(entry.row);
    }
  }
  NetFold::Net net = fold.Take();

  TableDelta delta;
  delta.table = table;
  delta.first_seq = entries.front().seq;
  delta.raw_entries = net.raw_entries;
  delta.deletes = std::move(net.deletes);
  delta.inserts = std::move(net.inserts);
  delta.update_pairs = net.update_pairs;
  delta.cancelled = net.cancelled;
  return delta;
}

}  // namespace

std::vector<TableDelta> Consolidate(
    const std::map<std::string, std::vector<DeltaEntry>>& pending,
    const Catalog& catalog) {
  std::vector<TableDelta> deltas;
  for (const auto& [table, entries] : pending) {
    if (entries.empty()) continue;
    const Table* base = catalog.GetTable(table);
    OJV_CHECK(base != nullptr, "pending entries for unknown table");
    TableDelta delta = ConsolidateTable(table, entries, base->key_positions());
    if (delta.deletes.empty() && delta.inserts.empty()) {
      // Fully cancelled: nothing for the maintainers, but keep the raw /
      // cancelled counts visible to the caller's stats.
    }
    deltas.push_back(std::move(delta));
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const TableDelta& a, const TableDelta& b) {
              return a.first_seq < b.first_seq;
            });
  return deltas;
}

}  // namespace deferred
}  // namespace ojv

#ifndef OJV_IVM_HEAVY_STATE_H_
#define OJV_IVM_HEAVY_STATE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "deferred/consolidate.h"
#include "exec/partition_split.h"
#include "ivm/view_def.h"
#include "opt/cardinality.h"
#include "opt/heavy_hitters.h"

namespace ojv {

/// Per-heavy-key lazy delta state for skew-adaptive maintenance
/// (DESIGN.md §16): delta rows touching heavy join keys are diverted
/// here instead of running the eager delta pipeline, netted per primary
/// key through the same fold as deferred batch consolidation
/// (deferred::NetFold), and folded into the view at drain points. A key
/// touched a thousand times between drains replays as one consolidated
/// statement whose join fanout is paid once.
///
/// Invariants the maintainer relies on:
///   - pending state covers exactly one base table (an op on any other
///     table forces a drain first — cross-table interleavings could
///     otherwise produce duplicate view rows at drain);
///   - every join-key value with pending state is "pinned": later rows
///     carrying it keep diverting until the drain clears the pins, even
///     if the sketch demotes the key meanwhile (an eager op on a pinned
///     key would touch view rows the lazy state still owes).
class HeavyState {
 public:
  explicit HeavyState(int64_t max_pending_rows);

  bool empty() const { return fold_ == nullptr || fold_->empty(); }
  /// Raw diverted rows since the last drain (the netting may fold them
  /// into fewer at drain time).
  int64_t pending_rows() const { return pending_rows_; }
  bool AtCapacity() const { return pending_rows_ >= max_pending_rows_; }
  /// Table the pending state belongs to; empty when nothing pends.
  const std::string& table() const { return table_; }

  void DivertInsert(const std::string& table,
                    const std::vector<int>& key_positions, const Row& row);
  void DivertDelete(const std::string& table,
                    const std::vector<int>& key_positions, const Row& row);

  void Pin(int column_pos, const Value& v);
  bool IsPinned(int column_pos, const Value& v) const;

  struct DrainBatch {
    std::string table;
    std::vector<Row> deletes;  // net pre-images, key order
    std::vector<Row> inserts;  // net post-images, key order
    int64_t update_pairs = 0;
    int64_t raw_entries = 0;
  };

  /// Extracts the consolidated pending batch and clears state and pins.
  DrainBatch Take();

 private:
  void EnsureTable(const std::string& table,
                   const std::vector<int>& key_positions);

  int64_t max_pending_rows_;
  int64_t pending_rows_ = 0;
  std::string table_;
  std::unique_ptr<deferred::NetFold> fold_;
  std::unordered_map<int, std::unordered_set<Value, ValueHash>> pinned_;
};

/// ViewMaintainer's glue under MaintenanceOptions::skew = kHeavyLight
/// (row and aggregation views alike): owns the heavy-hitter
/// catalog, the lazy state, and the per-table join-edge map extracted
/// from the view definition; classifies and splits delta batches. The
/// owner installs a drain hook that replays the taken batch through its
/// own maintenance entry points (the controller cannot: drain policy and
/// apply paths are the owner's).
class HeavyLightController {
 public:
  HeavyLightController(const Catalog* catalog, const ViewDef& view,
                       opt::HeavyHitterConfig config);

  /// Hook invoked when a split discovers it must fold pending state in
  /// first (key demotion with pending rows, or the capacity cap).
  void set_drain_hook(std::function<void()> hook) {
    drain_hook_ = std::move(hook);
  }

  opt::HeavyHitterCatalog* hitters() { return &hitters_; }

  /// True when `table` participates in at least one cross-table equality
  /// join — the only case where heaviness is defined (a table with no
  /// join edges has fanout 1 per delta row).
  bool HasEdges(const std::string& table) const {
    return edges_.count(table) > 0;
  }

  bool HasPending() const { return !state_.empty(); }
  int64_t pending_rows() const { return state_.pending_rows(); }
  const std::string& pending_table() const { return state_.table(); }

  /// True when an op on `table` must drain pending state before running.
  /// `can_divert` is false for constraint-free / shared-plan ops, which
  /// always run eagerly and therefore may not overlap pending state.
  bool NeedsDrainBefore(const std::string& table, bool can_divert) const {
    return HasPending() && (!can_divert || state_.table() != table);
  }

  /// Feed passthrough (same contract as opt::StatsCatalog).
  void OnInsert(const std::string& table, const std::vector<Row>& rows) {
    hitters_.OnInsert(table, rows);
  }
  void OnDelete(const std::string& table, const std::vector<Row>& rows) {
    hitters_.OnDelete(table, rows);
  }
  void OnUpdate(const std::string& table, const std::vector<Row>& old_rows,
                const std::vector<Row>& new_rows) {
    hitters_.OnUpdate(table, old_rows, new_rows);
  }

  /// Splits `rows`, diverting the heavy partition into the lazy state;
  /// returns the light partition. May invoke the drain hook. Call only
  /// when HasEdges(table).
  std::vector<Row> SplitBatch(const std::string& table,
                              const std::vector<Row>& rows, bool is_insert);

  /// UPDATE-pair variant: heavy pairs (either half heavy) divert as
  /// delete(old)+insert(new); the light pairs are returned aligned.
  void SplitPairs(const std::string& table, const std::vector<Row>& old_rows,
                  const std::vector<Row>& new_rows,
                  std::vector<Row>* light_old, std::vector<Row>* light_new);

  HeavyState::DrainBatch Take() { return state_.Take(); }

  /// Partitioned-cardinality exclusions for planning ΔT's light batch:
  /// per counterpart table, the promoted keys' row mass and count — the
  /// heavy partition the light rows will never join.
  std::unordered_map<std::string, opt::PartitionExclusion> Exclusions(
      const std::string& delta_table);

 private:
  struct JoinEdge {
    int position = -1;          // column ordinal in this table's schema
    std::string other_table;    // counterpart side of the equality
    std::string other_column;
  };

  /// Classification of one value of `table` at `edge`: pinned values
  /// stay heavy until drain; otherwise the counterpart column's tracker
  /// decides with hysteresis. Sets *demoted when the probe demoted the
  /// key just now.
  bool ProbeHeavy(const JoinEdge& edge, int pos, const Value& v,
                  bool* demoted);

  /// Pins every non-null probed value of a diverted row so the key keeps
  /// diverting until the next drain clears the pins.
  void PinRow(const std::string& table, const Row& row);

  const Catalog* catalog_;
  opt::HeavyHitterCatalog hitters_;
  HeavyState state_;
  std::function<void()> drain_hook_;
  std::unordered_map<std::string, std::vector<JoinEdge>> edges_;
  std::unordered_map<std::string, std::vector<int>> probe_positions_;
};

}  // namespace ojv

#endif  // OJV_IVM_HEAVY_STATE_H_

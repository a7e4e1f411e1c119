#ifndef OJV_IVM_AGGREGATE_VIEW_H_
#define OJV_IVM_AGGREGATE_VIEW_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ivm/maintainer.h"
#include "ivm/view_def.h"

namespace ojv {

/// One aggregate of an aggregation view (paper §3.3). AVG is derivable
/// from SUM/COUNT. MIN/MAX are not self-maintainable under deletions
/// (the paper and SQL Server indexed views exclude them); we support
/// them as an extension by falling back to a per-group recomputation
/// whenever a deletion removes the current extreme.
struct AggregateSpec {
  enum class Kind { kCountStar, kCount, kSum, kMin, kMax };
  Kind kind = Kind::kCountStar;
  ColumnRef column;  // ignored for kCountStar
  std::string name;  // output column name
};

/// An aggregated outer-join view: GROUP BY over an SPOJ view.
///
/// Maintenance follows §3.3: the primary delta ΔV^D is computed exactly
/// as for the non-aggregated view, aggregated, and merged into the
/// groups; the secondary delta ΔV^I is computed from base tables (terms
/// cannot be extracted from an aggregated view, §5.3) and applied with
/// the opposite sign. Each group keeps a row count — groups reaching
/// zero are deleted — and a non-null contribution count per aggregate,
/// so a SUM/COUNT over a table that is entirely null-extended within a
/// group renders NULL and recovers when contributions reappear.
class AggViewMaintainer {
 public:
  AggViewMaintainer(const Catalog* catalog, ViewDef base,
                    std::vector<ColumnRef> group_by,
                    std::vector<AggregateSpec> aggregates,
                    MaintenanceOptions options = MaintenanceOptions());

  /// §3.3 fidelity: also expose, per group, a not-null count column
  /// "notnull_<table>" for every table that is null-extended in some
  /// term of the base view. Must be called before InitializeView.
  void ExposeNotNullCounts();

  /// Computes all groups from scratch.
  void InitializeView();

  /// Same contract as ViewMaintainer: the base table is already updated.
  MaintenanceStats OnInsert(const std::string& table,
                            const std::vector<Row>& rows,
                            PlanPolicy policy = PlanPolicy::kDefault);
  MaintenanceStats OnDelete(const std::string& table,
                            const std::vector<Row>& rows,
                            PlanPolicy policy = PlanPolicy::kDefault);

  /// UPDATE statement (delete+insert pair). Like ViewMaintainer::
  /// OnUpdate, foreign-key shortcuts are disabled for the pair (§6
  /// caveat 1) via a dedicated FK-free plan set.
  MaintenanceStats OnUpdate(const std::string& table,
                            const std::vector<Row>& old_rows,
                            const std::vector<Row>& new_rows);

  /// Consolidated deferred batch: applies net deletes to `base` and
  /// maintains them, then net inserts (see ViewMaintainer::
  /// OnConsolidatedBatch for the exact contract).
  MaintenanceStats OnConsolidatedBatch(Table* base, const std::string& table,
                                       const std::vector<Row>& net_deletes,
                                       const std::vector<Row>& net_inserts,
                                       PlanPolicy policy);

  /// Installs a stats observer (empty to remove).
  void set_stats_hook(MaintenanceStatsHook hook) {
    stats_hook_ = std::move(hook);
  }

  // --- skew-adaptive maintenance (options.skew = kHeavyLight) ---
  // The wrapper owns its own heavy-light controller (the inner plan-set
  // maintainers run kUniform — diversion must happen before the group
  // merge, not inside the row-level pipeline the wrapper borrows plans
  // from). Contracts mirror ViewMaintainer's.

  /// See ViewMaintainer::PrepareHeavyForOp: call BEFORE applying a
  /// conflicting base change.
  void PrepareHeavyForOp(const std::string& table, PlanPolicy policy,
                         bool is_update = false);

  /// Folds pending heavy-key lazy state into the groups; no-op when
  /// nothing pends.
  MaintenanceStats DrainHeavyState();

  int64_t HeavyPendingRows() const {
    return heavy_ != nullptr ? heavy_->pending_rows() : 0;
  }

  HeavyLightController* heavy_controller() { return heavy_.get(); }

  int64_t num_groups() const { return static_cast<int64_t>(groups_.size()); }

  /// Snapshot: group columns, then "row_count", then the declared
  /// aggregates (NULL where no non-null contribution exists).
  Relation AsRelation() const;

  /// Oracle: the same snapshot recomputed from base tables.
  Relation Recompute() const;

  /// Compares the maintained groups against a recomputation: group keys
  /// and counts must match exactly; SUMs within `rel_tol` relative error
  /// (incremental float SUMs accumulate rounding, exactly as in any
  /// database that maintains SUM over floating-point columns).
  bool MatchesRecompute(double rel_tol, std::string* diff) const;

  const ViewDef& base_view() const { return inner_->view_def(); }

  const ExecConfig& exec_config() const { return inner_->exec_config(); }

  /// Swaps the executor configuration on both plan-set maintainers (used
  /// by the deferred refresh path; see ViewMaintainer::set_exec).
  void set_exec(const ExecConfig& exec) {
    inner_->set_exec(exec);
    if (fkfree_inner_ != nullptr) fkfree_inner_->set_exec(exec);
  }

  /// Attaches a trace context to both plan-set maintainers.
  void set_trace(obs::TraceContext* trace) {
    inner_->set_trace(trace);
    if (fkfree_inner_ != nullptr) fkfree_inner_->set_trace(trace);
  }

 private:
  struct RowLess {
    bool operator()(const Row& a, const Row& b) const {
      for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
        int c = a[i].SortCompare(b[i]);
        if (c != 0) return c < 0;
      }
      return a.size() < b.size();
    }
  };
  struct Accumulator {
    int64_t row_count = 0;
    std::vector<double> sums;      // per aggregate: Σ non-null values
    std::vector<int64_t> nonnull;  // per aggregate: # non-null values
    std::vector<Value> extremes;   // per aggregate: current MIN/MAX
    /// Set when a deletion removed a MIN/MAX extreme: the group's
    /// extremes must be recomputed before the next read.
    bool dirty = false;
  };
  using GroupMap = std::map<Row, Accumulator, RowLess>;

  bool HasMinMax() const;
  /// Recomputes the extremes of all dirty groups in one pass over the
  /// base view (deletion fallback for MIN/MAX).
  void RefreshDirtyGroups();

  MaintenanceStats Maintain(ViewMaintainer* planner, const std::string& table,
                            const std::vector<Row>& rows, bool is_insert);
  void ApplyRow(const Row& row, int sign, GroupMap* groups) const;
  void ApplyDeltaRows(const Relation& delta, int sign);
  Relation GroupsToRelation(const GroupMap& groups) const;

  const Catalog* catalog_;
  std::vector<ColumnRef> group_by_;
  std::vector<AggregateSpec> aggregates_;

  /// Provides the per-table plans and the primary-delta evaluation; its
  /// own (row-level) view storage stays empty and unused.
  std::unique_ptr<ViewMaintainer> inner_;
  /// FK-free plans for OnUpdate; null when inner_ is already FK-free.
  std::unique_ptr<ViewMaintainer> fkfree_inner_;

  std::vector<int> group_positions_;  // in the base view's output schema
  std::vector<int> agg_positions_;    // per aggregate; -1 for COUNT(*)
  GroupMap groups_;
  /// When ExposeNotNullCounts was requested: the null-extendable tables
  /// (name, first-key position in the base view's schema).
  std::vector<std::pair<std::string, int>> notnull_tables_;
  MaintenanceStatsHook stats_hook_;
  /// Heavy-light partitioning state; null under skew = kUniform.
  std::unique_ptr<HeavyLightController> heavy_;
  bool draining_heavy_ = false;

  bool CanDivert(const std::string& table, PlanPolicy policy,
                 bool is_update) const {
    return heavy_ != nullptr &&
           (is_update || policy == PlanPolicy::kDefault) &&
           heavy_->HasEdges(table);
  }
  void CheckHeavyConflict(const std::string& table, bool can_divert) const;
};

}  // namespace ojv

#endif  // OJV_IVM_AGGREGATE_VIEW_H_

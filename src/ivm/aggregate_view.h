#ifndef OJV_IVM_AGGREGATE_VIEW_H_
#define OJV_IVM_AGGREGATE_VIEW_H_

#include <map>
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
/// Maintenance follows §3.3 and runs the ViewMaintainer pipeline of the
/// base view — plan sets, cost-based planner and ivm.* spans —
/// unchanged; only the storage hooks differ. ΔV^D is merged into the
/// groups with the update's sign; ΔV^I is computed from base tables
/// (terms cannot be extracted from an aggregated view, §5.3) and merged
/// with the opposite sign. Each group keeps a row count —
/// groups reaching zero are deleted — and a non-null contribution count
/// per aggregate, so a SUM/COUNT over a table that is entirely
/// null-extended within a group renders NULL and recovers when
/// contributions reappear. The row store (view()) stays empty.
class AggViewMaintainer : public ViewMaintainer {
 public:
  AggViewMaintainer(const Catalog* catalog, ViewDef base,
                    std::vector<ColumnRef> group_by,
                    std::vector<AggregateSpec> aggregates,
                    MaintenanceOptions options = MaintenanceOptions());

  /// §3.3 fidelity: also expose, per group, a not-null count column
  /// "notnull_<table>" for every table that is null-extended in some
  /// term of the base view. Must be called before InitializeView.
  void ExposeNotNullCounts();

  bool is_aggregate() const override { return true; }

  int64_t num_groups() const { return static_cast<int64_t>(groups_.size()); }

  /// Snapshot: group columns, then "row_count", then the declared
  /// aggregates (NULL where no non-null contribution exists).
  Relation Contents() const override { return GroupsToRelation(groups_); }
  Relation AsRelation() const { return Contents(); }

  /// Oracle: the same snapshot recomputed from base tables.
  Relation Recompute() const;

  /// Compares the maintained groups against a recomputation: group keys
  /// and counts must match exactly; SUMs within `rel_tol` relative error
  /// (incremental float SUMs accumulate rounding, exactly as in any
  /// database that maintains SUM over floating-point columns).
  bool MatchesRecompute(double rel_tol, std::string* diff) const;

 protected:
  void LoadContents(const std::vector<Row>& rows) override;
  void ApplyPrimaryDelta(const Relation& primary, bool is_insert) override;
  int64_t ApplySecondaryDelta(SecondaryDeltaEngine* engine,
                              const Relation& primary,
                              const Relation& delta_t,
                              bool is_insert) override;

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

  void ApplyRow(const Row& row, int sign, GroupMap* groups) const;
  /// Groups of a full evaluation of the base view.
  GroupMap RecomputeGroups() const;
  Relation GroupsToRelation(const GroupMap& groups) const;

  std::vector<ColumnRef> group_by_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<int> group_positions_;  // in the base view's output schema
  std::vector<int> agg_positions_;    // per aggregate; -1 for COUNT(*)
  GroupMap groups_;
  bool notnull_exposed_ = false;
};

}  // namespace ojv

#endif  // OJV_IVM_AGGREGATE_VIEW_H_

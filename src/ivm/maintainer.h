#ifndef OJV_IVM_MAINTAINER_H_
#define OJV_IVM_MAINTAINER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "exec/evaluator.h"
#include "ivm/materialized_view.h"
#include "ivm/secondary_delta.h"
#include "ivm/view_def.h"
#include "normalform/jdnf.h"
#include "normalform/maintenance_graph.h"
#include "normalform/subsumption_graph.h"
#include "obs/trace.h"
#include "opt/planner.h"
#include "opt/stats.h"

namespace ojv {

/// Knobs for the maintenance procedure; defaults match the paper's
/// algorithm. Turning knobs off is used by the ablation benchmarks.
struct MaintenanceOptions {
  /// Convert ΔV^D to a left-deep tree (§4.1).
  bool use_left_deep = true;
  /// Exploit foreign keys: term pruning in the normal form, Theorem 3
  /// maintenance-graph reduction, and SimplifyTree on ΔV^D (§6).
  bool exploit_foreign_keys = true;
  /// Where to compute ΔV^I from (§5.2 vs §5.3).
  SecondaryStrategy secondary_strategy = SecondaryStrategy::kFromView;
  /// Trace sink (not owned). When set, every maintenance operation
  /// records per-stage spans — plan build, primary delta with one span
  /// per exec operator, apply, secondary delta — into it. Null (the
  /// default) disables tracing.
  obs::TraceContext* trace = nullptr;
};

/// Which plan set a maintenance call uses. kConstraintFree selects the
/// FK-free plans (unpruned normal form, no Theorem 3 / SimplifyTree):
/// required while a deferrable constraint may be violated — UPDATE
/// pairs (§6 caveat 1) and every refresh inside a multi-statement
/// transaction, whose checks are deferred (§6 caveat 3).
enum class PlanPolicy { kDefault, kConstraintFree };

/// Counters and timings for one maintenance operation.
struct MaintenanceStats {
  int64_t delta_rows = 0;        // |ΔT|
  int64_t primary_rows = 0;      // |ΔV^D|
  int64_t secondary_rows = 0;    // orphans fixed up
  int direct_terms = 0;
  int indirect_terms = 0;
  bool fk_fast_path = false;     // SimplifyTree proved ΔV^D ≡ ΔT or ∅
  double primary_micros = 0;     // compute ΔV^D
  double apply_micros = 0;       // apply ΔV^D to the view
  double secondary_micros = 0;   // compute + apply ΔV^I
  double total_micros = 0;

  /// Folds `other` in (row counts and timings add; term counts keep the
  /// later operation's values, matching OnUpdate's delete+insert merge).
  MaintenanceStats& Merge(const MaintenanceStats& other);
};

/// Incremental maintainer for one materialized SPOJ view.
///
/// Contract: the caller applies the base-table update first (the paper's
/// procedures run against post-update base tables) and then hands the
/// update to the maintainer:
///
///   inserted = ApplyBaseInsert(catalog.GetTable("lineitem"), rows);
///   maintainer.OnInsert("lineitem", inserted);
///
/// All per-table plans (normal form, graphs, delta expressions) are
/// computed once, up front.
///
/// The pipeline — plan sets, cost-based planner, ivm.* spans — is the
/// same for every view; only where the deltas land
/// differs. A subclass stores its contents elsewhere by overriding the
/// protected storage hooks (AggViewMaintainer merges them into groups).
class ViewMaintainer {
 public:
  ViewMaintainer(const Catalog* catalog, ViewDef view,
                 MaintenanceOptions options = MaintenanceOptions());
  virtual ~ViewMaintainer() = default;
  // The secondary engines hold pointers into this maintainer.
  ViewMaintainer(const ViewMaintainer&) = delete;
  ViewMaintainer& operator=(const ViewMaintainer&) = delete;

  /// Fully computes the view contents (used for initialization and as
  /// the oracle in tests) and installs them through LoadContents.
  void InitializeView();

  /// Warm restart: installs previously saved view contents (e.g. from
  /// io::LoadRelationRows) instead of recomputing. Rows must be in the
  /// view's output schema; duplicate keys abort. The caller is
  /// responsible for the snapshot matching the base tables' state.
  void RestoreView(const std::vector<Row>& rows);

  /// The row store; stays empty for aggregation views.
  const MaterializedView& view() const { return *view_store_; }
  /// True for aggregation views, whose contents are groups.
  virtual bool is_aggregate() const { return false; }
  /// The contents a snapshot generation publishes.
  virtual Relation Contents() const { return view_store_->AsRelation(); }
  const ViewDef& view_def() const { return view_def_; }
  const std::vector<Term>& terms() const { return main_.terms; }
  const SubsumptionGraph& subsumption_graph() const { return *main_.sgraph; }
  const MaintenanceGraph& maintenance_graph(const std::string& table) const;

  /// The (simplified, possibly left-deep) ΔV^D expression used for
  /// updates of `table`; null when the FK fast path proves it empty.
  const RelExprPtr& delta_expr(const std::string& table) const;

  /// Maintains the view after `rows` were inserted into `table`.
  MaintenanceStats OnInsert(const std::string& table,
                            const std::vector<Row>& rows,
                            PlanPolicy policy = PlanPolicy::kDefault);

  /// Maintains the view after rows were deleted from `table`; `rows`
  /// must be the full deleted rows.
  MaintenanceStats OnDelete(const std::string& table,
                            const std::vector<Row>& rows,
                            PlanPolicy policy = PlanPolicy::kDefault);

  /// Maintains the view after an UPDATE statement, modeled as
  /// delete(old_rows) + insert(new_rows) — both already applied to the
  /// base table. Per §6 caveat 1, foreign-key optimizations are disabled
  /// for this pair: between the deletion and the reinsertion the
  /// constraint need not hold, so a separate FK-free plan set (with the
  /// unpruned normal form) is used.
  MaintenanceStats OnUpdate(const std::string& table,
                            const std::vector<Row>& old_rows,
                            const std::vector<Row>& new_rows);

  /// Maintains the view for a consolidated deferred batch of `table`
  /// (src/deferred/consolidate.h): applies the net deletes to `base` and
  /// maintains them, then the net inserts — two complete statements, so
  /// the view sees exactly the base states an eager execution of the
  /// consolidated statement sequence would have seen. `base` must be the
  /// catalog's table named `table` with the batch's changes *not yet*
  /// applied (the deferred refresh reverts pending changes first).
  MaintenanceStats OnConsolidatedBatch(Table* base, const std::string& table,
                                       const std::vector<Row>& net_deletes,
                                       const std::vector<Row>& net_inserts,
                                       PlanPolicy policy);

  // --- plan access for tests and benchmarks ---

  /// True when updates of `table` provably cannot change the view.
  bool DeltaIsEmpty(const std::string& table) const;

  /// Evaluates ΔV^D for an update of `table`, aligned to the view's
  /// output schema. `delta_t` must be tagged with the table's schema.
  Relation ComputePrimaryDeltaRelation(const std::string& table,
                                       const Relation& delta_t);

  /// The secondary-delta engine for updates of `table` (null when the
  /// delta is provably empty).
  SecondaryDeltaEngine* secondary_engine(const std::string& table);

  /// Attaches/detaches a trace sink at runtime (propagates to the
  /// secondary engines). Equivalent to constructing with options.trace.
  void set_trace(obs::TraceContext* trace);
  obs::TraceContext* trace() const { return options_.trace; }

  // --- cost-based planner access (EXPLAIN, tests, benchmarks) ---

  /// The statistics catalog backing the cost-based planner.
  opt::StatsCatalog* stats_catalog() { return &stats_catalog_; }

  /// The per-(table, op, policy) plan cache.
  const opt::PlanCache& plan_cache() const { return plan_cache_; }

  /// The cached plan for maintenance of `table` under the given op and
  /// policy; null when the op never ran or its delta has no join.
  const opt::PlanCacheEntry* plan_entry(const std::string& table,
                                        bool is_insert,
                                        PlanPolicy policy) const;

  /// Drops every cached plan and marks all statistics stale; the next
  /// maintenance op re-scans and re-plans. (Schema or constraint changes
  /// outside the maintainer's view should call this.)
  void InvalidatePlans();

 protected:
  // --- storage hooks: where the deltas land ---

  /// Installs full view contents (InitializeView, RestoreView).
  virtual void LoadContents(std::vector<Row> rows);
  /// Applies ΔV^D (aligned to the output schema) of an insert or delete.
  virtual void ApplyPrimaryDelta(const Relation& primary, bool is_insert);
  /// Computes and applies ΔV^I with `engine` after ΔV^D was applied;
  /// returns the number of rows it moved.
  virtual int64_t ApplySecondaryDelta(SecondaryDeltaEngine* engine,
                                      const Relation& primary,
                                      const Relation& delta_t, bool is_insert);

  /// Evaluates the whole view over the current base tables, reading
  /// only the columns it uses (ViewDef::WithProjection) and bypassing
  /// table_cache_, so no whole-table copy outlives the evaluation.
  Relation EvaluateView(obs::TraceContext* trace) const;

 private:
  struct TablePlan {
    std::unique_ptr<MaintenanceGraph> graph;
    RelExprPtr delta_expr;  // null => provably empty delta
    bool delta_empty = false;
    std::unique_ptr<SecondaryDeltaEngine> secondary;
  };

  /// A complete set of maintenance plans under one FK policy. The
  /// FK-free set has its own normal form: FK term pruning is also a
  /// constraint-dependent optimization.
  struct PlanSet {
    std::vector<Term> terms;
    std::unique_ptr<SubsumptionGraph> sgraph;
    std::map<std::string, TablePlan> plans;

    const TablePlan& For(const std::string& table) const;
  };

  void BuildPlanSet(bool use_fks, PlanSet* out);

  const PlanSet& SetFor(PlanPolicy policy) const {
    return policy == PlanPolicy::kConstraintFree &&
                   options_.exploit_foreign_keys
               ? update_
               : main_;
  }

  MaintenanceStats Maintain(const TablePlan& plan, const std::string& table,
                            const std::vector<Row>& rows, bool is_insert,
                            PlanPolicy policy);
  // Evaluates one primary-delta expression (static or planner-chosen)
  // and aligns it to the output schema. `probe_joins` (may be null) are
  // the planner's probe-join marks on `expr`.
  Relation EvalPrimaryDelta(
      const RelExprPtr& expr, const Relation& delta_t,
      const std::unordered_set<const RelExpr*>* probe_joins);

  const Catalog* catalog_;
  ViewDef view_def_;
  MaintenanceOptions options_;
  PlanSet main_;
  /// FK-free plans for OnUpdate; empty when main_ is already FK-free.
  PlanSet update_;
  std::unique_ptr<MaterializedView> view_store_;
  /// Base tables materialized once per table version for the
  /// maintenance-time evaluations that still read whole tables: the §5.3
  /// from-base fragments and the primary delta's hash-join steps.
  /// Full-view evaluations (EvaluateView) do not use it.
  TableRelationCache table_cache_;
  /// Cost-based planner state.
  opt::StatsCatalog stats_catalog_;
  opt::DeltaPlanner planner_;
  opt::PlanCache plan_cache_;
};

/// Inserts rows into a base table; returns the rows actually inserted
/// (duplicate keys are skipped).
std::vector<Row> ApplyBaseInsert(Table* table, const std::vector<Row>& rows);

/// Deletes rows by key from a base table; returns the full deleted rows.
std::vector<Row> ApplyBaseDelete(Table* table, const std::vector<Row>& keys);

/// Updates rows by key: deletes `keys` and inserts `new_rows`. Returns
/// the full pre-update rows through *old_rows.
void ApplyBaseUpdate(Table* table, const std::vector<Row>& keys,
                     const std::vector<Row>& new_rows,
                     std::vector<Row>* old_rows);

}  // namespace ojv

#endif  // OJV_IVM_MAINTAINER_H_

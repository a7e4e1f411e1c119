#ifndef OJV_IVM_SECONDARY_DELTA_H_
#define OJV_IVM_SECONDARY_DELTA_H_

#include <string>
#include <vector>

#include "exec/evaluator.h"
#include "exec/relation.h"
#include "ivm/materialized_view.h"
#include "ivm/view_def.h"
#include "normalform/maintenance_graph.h"
#include "normalform/term.h"
#include "obs/trace.h"
#include "opt/planner.h"

namespace ojv {

/// Where to compute the secondary delta from: the view (paper §5.2) or
/// the base tables (§5.3), kept as an ablation. Row views default to
/// kFromView; aggregation views always compute from base tables.
enum class SecondaryStrategy {
  kFromView,        // semijoin/antijoin of ΔV^D against the view itself
  kFromBaseTables,  // recompute parent fragments from base tables
};

/// Computes and applies ΔV^I — the "clean-up" deltas of the indirectly
/// affected terms — after the primary delta has been applied to both the
/// base table and the view.
///
/// For an insertion, new parent-term tuples may subsume existing orphans,
/// which must be deleted from the view; for a deletion, removed parent
/// tuples may expose new orphans, which must be inserted.
class SecondaryDeltaEngine {
 public:
  /// All references and `planner` must outlive the engine.
  /// `primary_delta` must be aligned to the view's output schema. The
  /// planner's row estimates pick the order in which the §5.3
  /// expressions join the residual parent tables.
  SecondaryDeltaEngine(const ViewDef& view_def, const Catalog& catalog,
                       const std::vector<Term>& terms,
                       const MaintenanceGraph& graph,
                       const std::string& updated_table,
                       opt::DeltaPlanner* planner);

  /// Uses `cache` for base-table scans of the §5.3 expressions
  /// (optional; not owned).
  void set_table_cache(TableRelationCache* cache) { cache_ = cache; }

  /// Trace sink (optional; not owned). Records which strategy each
  /// apply ran and, for the base-table plan, the §5.3 expressions'
  /// operator spans.
  void set_trace(obs::TraceContext* trace) { trace_ = trace; }

  /// Processes every indirectly affected term for an insertion into the
  /// updated table. Deletes subsumed orphans from `view`; returns the
  /// number of rows deleted. `delta_t` is ΔT (used by the base-table
  /// strategy to reconstruct the pre-insert table state).
  int64_t ApplyAfterInsert(SecondaryStrategy strategy,
                           const Relation& primary_delta,
                           const Relation& delta_t, MaterializedView* view);

  /// Processes every indirectly affected term for a deletion. Inserts
  /// newly exposed orphans into `view`; returns the number inserted.
  int64_t ApplyAfterDelete(SecondaryStrategy strategy,
                           const Relation& primary_delta,
                           MaterializedView* view);

  /// Computes ΔV^I entirely from base tables (§5.3) — no access to the
  /// materialized view — for all indirectly affected terms. Rows are in
  /// the view's output schema, null-extended outside each term's source.
  /// After an insertion these are the orphans that leave the view; after
  /// a deletion, the orphans that enter it. This is the path aggregation
  /// views use (terms cannot be extracted from an aggregated view).
  std::vector<Row> CandidatesFromBaseTables(const Relation& primary_delta,
                                            const Relation& delta_t,
                                            bool is_insert);

 private:
  struct TermPlan {
    int term_index;
    std::vector<std::string> ti_tables;      // source of Ei, ordered
    std::vector<std::string> null_tables;    // view tables not in Ti
    // For each direct parent: its term index.
    std::vector<int> direct_parents;
    // Tables added by indirectly affected parents (for Qi).
    std::set<std::string> indirect_parent_extra;
    // Output-schema positions resolved once at construction, so the
    // per-row probe loops below never touch the schema's name→position
    // maps. A table is null-extended iff its first key column is NULL,
    // so one position per table suffices for the nn/n tests.
    std::vector<int> ti_null_probes;    // first key col of each ti table
    std::vector<int> null_table_probes;  // first key col of each null table
    // Per direct parent (index-aligned with direct_parents): first key
    // col of each of the parent's source tables, for SatisfiesPi.
    std::vector<std::vector<int>> parent_nn_probes;
    // All key columns of all ti tables, flattened, for TiKeysMatch.
    std::vector<int> ti_key_positions;
    // KeyPositions(ti_tables[0]), for the view-index probe in LookupTi.
    std::vector<int> first_ti_keys;
  };

  // --- shared helpers ---
  bool SatisfiesPi(const Row& delta_row, const TermPlan& plan) const;
  bool IsOrphanOf(const Row& view_row, const TermPlan& plan) const;
  bool TiKeysMatch(const Row& a, const Row& b, const TermPlan& plan) const;
  // View row ids with the same Ti key as `probe` (probe in view schema).
  std::vector<int64_t> LookupTi(const MaterializedView& view, const Row& probe,
                                const TermPlan& plan) const;

  // --- view-based strategy ---
  int64_t DeleteOrphansFromView(const TermPlan& plan,
                                const Relation& primary_delta,
                                MaterializedView* view);
  int64_t InsertOrphansFromView(const TermPlan& plan,
                                const Relation& primary_delta,
                                MaterializedView* view);

  // --- base-table strategy (paper §5.3) ---
  // Builds and evaluates the ΔDi expression; returns candidate Ti tuples
  // in the view's output schema (non-Ti columns null).
  std::vector<Row> ComputeFromBaseTables(const TermPlan& plan,
                                         const Relation& primary_delta,
                                         const Relation& delta_t,
                                         bool is_insert);
  // Appends to `candidates` the Si columns in `missing` — predicate-only
  // columns the view does not output — recovered by unique-key lookup
  // against the base tables. A candidate whose base row no longer exists
  // (deleted elsewhere in the same consolidated batch) is dropped: its
  // term tuple cannot survive the batch either.
  Relation EnrichCandidates(const Relation& candidates,
                            const std::vector<ColumnRef>& missing) const;
  int64_t DeleteCandidateOrphans(const std::vector<Row>& candidates,
                                 const TermPlan& plan, MaterializedView* view);
  int64_t InsertCandidateOrphans(const std::vector<Row>& candidates,
                                 const TermPlan& plan, MaterializedView* view);

  const ViewDef& view_def_;
  const Catalog& catalog_;
  const std::vector<Term>& terms_;
  const MaintenanceGraph& graph_;
  std::string updated_table_;
  std::vector<TermPlan> plans_;
  TableRelationCache* cache_ = nullptr;
  obs::TraceContext* trace_ = nullptr;
  opt::DeltaPlanner* planner_;
};

/// Human-readable strategy name ("from_view"/"from_base_tables").
const char* SecondaryStrategyName(SecondaryStrategy strategy);

}  // namespace ojv

#endif  // OJV_IVM_SECONDARY_DELTA_H_

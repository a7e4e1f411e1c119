#ifndef OJV_IVM_DATABASE_H_
#define OJV_IVM_DATABASE_H_

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "deferred/delta_log.h"
#include "deferred/scheduler.h"
#include "ivm/aggregate_view.h"
#include "ivm/maintainer.h"
#include "ivm/view_def.h"
#include "ivm/view_snapshot.h"

namespace ojv {

/// Statement-level facade over a catalog and its materialized views —
/// the moral equivalent of the paper's trigger + stored-procedure setup
/// on SQL Server: every insert/delete/update statement checks foreign
/// keys and applies the change to the base table. View maintenance is
/// governed per view by a refresh policy (src/deferred/):
///
///   - kImmediate (default): maintained inside the statement, exactly
///     the paper's setup and the seed behavior;
///   - kOnDemand: statements stage their changes in an append-only delta
///     log; the view catches up at read time or on an explicit Refresh;
///   - kThreshold: like kOnDemand, but the view auto-refreshes when its
///     pending rows or staleness exceed configured limits — inline after
///     the offending statement or, with StartBackgroundRefresh, on a
///     worker thread.
///
/// Deferred refresh consolidates the pending batch to its net effect
/// (insert+delete of a key cancels; delete+reinsert folds to an update
/// pair) before invoking the incremental maintainers, so the ΔT the
/// paper's left-deep pipeline (§4) sees is minimal.
///
/// Thread-safety: all statement, refresh, and read entry points lock one
/// recursive mutex, which is what the background worker synchronizes on.
/// Raw pointers obtained from GetView/catalog() are not protected.
class Database {
 public:
  explicit Database(MaintenanceOptions default_options = MaintenanceOptions())
      : default_options_(default_options) {}
  ~Database() { StopBackgroundRefresh(); }

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Attaches a trace context (null detaches) to every statement entry
  /// point and to all current and future views: db.* statement spans,
  /// deferred.refresh spans, and the nested ivm.*/exec.* spans of the
  /// maintainers all land in `trace`.
  void set_trace(obs::TraceContext* trace);
  obs::TraceContext* trace() const { return default_options_.trace; }

  Catalog* catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Creates and materializes a view; returns its maintainer. The view
  /// is maintained by every subsequent statement. Null, and nothing is
  /// created, when a view of the same name exists.
  ViewMaintainer* CreateMaterializedView(
      ViewDef view, const MaintenanceOptions* options = nullptr);

  /// Creates and materializes an aggregation view (null when the name
  /// is in use, as for CreateMaterializedView).
  AggViewMaintainer* CreateAggregateView(
      ViewDef base, std::vector<ColumnRef> group_by,
      std::vector<AggregateSpec> aggregates,
      const MaintenanceOptions* options = nullptr);

  /// Null for unknown names; GetView answers for row views only and
  /// GetAggregateView for aggregation views only.
  ViewMaintainer* GetView(const std::string& name);
  AggViewMaintainer* GetAggregateView(const std::string& name);

  /// Drops a registered view. Returns false if unknown.
  bool DropView(const std::string& name);

  /// Outcome of one statement.
  struct StatementResult {
    int64_t rows_affected = 0;        // base-table rows
    int64_t rows_rejected = 0;        // duplicates / missing keys / FK
    double maintenance_micros = 0;    // summed over all views
    /// Per-view maintenance cost of this statement (deferred views show
    /// up when their refresh runs inline, e.g. a threshold trip). Each
    /// entry accumulates MaintenanceStats::total_micros — the exact
    /// number the maintainer also records as the duration of its
    /// ivm.maintain root span, so this legacy figure and the trace can
    /// never disagree.
    std::map<std::string, double> view_micros;
    std::string error;                // non-empty => statement rejected
    bool ok() const { return error.empty(); }
  };

  /// Inserts rows, enforcing declared foreign keys (rows referencing
  /// missing parents are rejected row-by-row), then maintains all views.
  StatementResult Insert(const std::string& table,
                         const std::vector<Row>& rows);

  /// Deletes rows by key. Rejects the whole statement if a deletion
  /// would break a (non-cascading) foreign key; with cascading
  /// constraints, referencing rows are deleted too — and their views
  /// maintained — before the parent rows.
  StatementResult Delete(const std::string& table,
                         const std::vector<Row>& keys);

  /// Updates rows by key (delete+insert pair, §6 caveat 1 honored by
  /// the maintainers). Key columns must be unchanged.
  StatementResult Update(const std::string& table,
                         const std::vector<Row>& keys,
                         const std::vector<Row>& new_rows);

  /// Registered row-level views, for planners (e.g. view matching) that
  /// want to scan candidates.
  std::vector<ViewMaintainer*> Views();

  // --- deferred maintenance (src/deferred/) ---

  /// Sets a view's refresh policy. Switching away from kImmediate
  /// registers the view on the delta log (it is up to date at that
  /// point); switching back drains it first. `config` only matters for
  /// kThreshold. A refresh replays on the view's own executor config
  /// (MaintenanceOptions::exec). Returns false for an unknown view.
  bool SetRefreshPolicy(
      const std::string& view, deferred::RefreshPolicy policy,
      deferred::ThresholdConfig config = deferred::ThresholdConfig());
  deferred::RefreshPolicy GetRefreshPolicy(const std::string& view) const;

  /// Drains the view's pending deltas into its contents. A no-op (zero
  /// stats) for kImmediate views, which are never stale, and for
  /// unknown views.
  deferred::RefreshStats Refresh(const std::string& view);

  /// Refreshes every deferred view; returns per-view stats.
  std::map<std::string, deferred::RefreshStats> RefreshAll();

  /// Pending (not yet applied) log rows relevant to the view.
  int64_t PendingRows(const std::string& view) const;

  /// Entries currently held in the staging log across all tables (drops
  /// to 0 once every deferred consumer has refreshed past them).
  int64_t DeltaLogSize() const;

  /// Cumulative refresh bookkeeping (zero-valued for unknown views).
  /// Returned by value: the scheduler's state is assembled under `mu_`
  /// and keeps changing after this call returns, so a reference or
  /// pointer into it would be the same torn-read hazard the old
  /// ReadView had.
  deferred::ViewRefreshState RefreshState(const std::string& view) const;

  /// Fresh (read-your-writes) access to a view's contents, returned as
  /// a refcounted ViewSnapshot pinned to one published generation (see
  /// ivm/view_snapshot.h and DESIGN.md §17): the read takes the
  /// statement mutex and a deferred view catches up first, so it
  /// observes the full view. An invalid snapshot (== nullptr) means
  /// unknown view; ReadView answers row views only,
  /// ReadAggregateRelation aggregation views only. Inside a transaction
  /// the read sees the transaction's own writes through an unpublished
  /// generation (number 0): other readers keep the last committed
  /// generation.
  ViewSnapshot ReadView(const std::string& name);
  ViewSnapshot ReadAggregateRelation(const std::string& name);

  /// The serving-path read: pins the last published generation of any
  /// registered view (row or aggregate) without waiting on statements
  /// or refreshes. If the statement mutex is free it first publishes a
  /// fresher generation of the stored contents (pending deferred deltas
  /// stay pending); if maintenance holds the lock it pins what is
  /// already published. Invalid snapshot (== nullptr) for unknown
  /// views.
  ViewSnapshot AcquireSnapshot(const std::string& name);

  /// Starts/stops the background worker that drains kThreshold views.
  /// While running, threshold trips ping the worker instead of
  /// refreshing inline. Start returns false, and changes nothing, when
  /// the worker is already running.
  bool StartBackgroundRefresh(std::chrono::milliseconds interval);
  void StopBackgroundRefresh();
  bool background_refresh_running() const { return refresher_.running(); }

  // --- multi-statement transactions (§6 caveat 3) ---
  //
  // Inside a transaction, foreign-key checking is deferred: statements
  // skip per-row enforcement and view maintenance runs on the
  // constraint-free plan sets (a deferrable constraint may be violated
  // between statements, so the FK optimizations are off). Commit()
  // validates every declared constraint; a violation rolls the whole
  // transaction back — base tables and views — via inverse statements.
  // Deferred views are drained at BeginTransaction and maintained
  // eagerly until the transaction ends, so the undo log's inverse
  // statements always see up-to-date views.

  /// Starts a transaction. Returns false if one is already open.
  bool BeginTransaction();

  /// Validates deferred constraints and finishes the transaction. On
  /// violation the transaction is rolled back and the result carries
  /// the error.
  StatementResult Commit();

  /// Reverts every statement of the open transaction (inverse order).
  /// Returns false when no transaction is open.
  bool Rollback();

  bool in_transaction() const { return in_transaction_; }

  /// Cumulative maintenance counters per view since creation, rendered
  /// as a table: statements observed, delta/primary/secondary row
  /// totals, and total maintenance time.
  std::string StatsReport() const;

  /// Per-view refresh-policy counters (refreshes, raw vs consolidated
  /// rows, cancelled rows, refresh time).
  std::string RefreshReport() const;

 private:
  /// Materializes and registers a new view (row or aggregate) and
  /// publishes its first generation (see InstallSnapshotStore). Caller
  /// holds `mu_`.
  ViewMaintainer* AddView(std::unique_ptr<ViewMaintainer> view);
  // FK child check for inserted rows of `table`; true if row valid.
  bool RowSatisfiesForeignKeys(const std::string& table, const Row& row);
  // Referencing child rows that block / cascade a parent delete, fetched
  // per distinct key through each child's FK index.
  std::vector<std::pair<const ForeignKey*, std::vector<Row>>>
  ReferencingRows(const std::string& table, const std::vector<Row>& keys);
  /// (table, keys) deletes in apply order.
  using DeleteSteps = std::vector<std::pair<std::string, std::vector<Row>>>;
  /// The deletes a delete of `keys` from `table` implies, children
  /// first: appends one step per cascading reference, depth first, then
  /// `table`'s own step. Looks up each step's children once. Returns false,
  /// with *error set, when a restricting foreign key references any row
  /// of the tree.
  bool CollectCascade(const std::string& table, std::vector<Row> keys,
                      DeleteSteps* steps, std::string* error);

  void MaintainInsert(const std::string& table, const std::vector<Row>& rows,
                      StatementResult* result);
  void MaintainDelete(const std::string& table, const std::vector<Row>& rows,
                      StatementResult* result);

  /// True when `view`'s maintenance is being staged rather than run
  /// inside the current statement.
  bool DeferredNow(const std::string& view) const {
    return !in_transaction_ && scheduler_.IsDeferred(view);
  }

  /// Tables referenced by the (row or aggregate) view.
  const std::set<std::string>& TablesOf(const std::string& view) const;
  /// Stages a statement's rows for the deferred views that reference
  /// `table`; no-op when none do.
  void StageDeferred(const std::string& table, deferred::DeltaOp op,
                     const std::vector<Row>& rows, bool update_pair);
  /// Threshold check after a statement: refreshes due views inline, or
  /// pings the background worker when one is running.
  void MaybeAutoRefresh(StatementResult* result);
  /// Background worker body: refreshes the due kThreshold views.
  void DrainDueViews();
  /// The one due-view scan: the kThreshold views past their Due()
  /// limits right now, in scan order. Publishes every threshold view's
  /// pressure gauges on the way.
  std::vector<std::string> CollectDueViews() const;
  /// Refreshes the current due set, attributing inline costs to
  /// `result` when non-null.
  void RefreshDueViews(StatementResult* result);

  // --- snapshot-read internals (ivm/view_snapshot.h) ---

  /// The view's generation store, or null for unknown views. Safe to
  /// call with or without `mu_` (`snapshot_mu_` orders map access).
  std::shared_ptr<GenerationStore> SnapshotStoreFor(
      const std::string& name) const;
  /// Registers a fresh store for a just-created view and publishes its
  /// initial generation — outside a transaction only, since inside one
  /// the contents hold uncommitted rows. Caller holds `mu_`.
  void InstallSnapshotStore(const std::string& name);
  /// Publishes the view's current stored contents as a new generation
  /// if the published one is out of date. Caller holds `mu_` (the
  /// stored view must not move while we copy it). Pending deferred
  /// deltas (not part of the stored contents) set the new generation's
  /// staleness origin.
  void PublishSnapshotLocked(const std::string& name,
                             const std::shared_ptr<GenerationStore>& store);
  /// Publishes and pins. Inside a transaction nothing publishes: the
  /// read pins an unpublished copy of the current contents. Caller
  /// holds `mu_`.
  ViewSnapshot SnapshotReadLocked(const std::string& name,
                                  const std::shared_ptr<GenerationStore>& store);
  /// ReadView/ReadAggregateRelation body once the store is known: takes
  /// `mu_`, refreshes a deferred view (outside a transaction), then
  /// SnapshotReadLocked.
  ViewSnapshot FreshRead(const std::string& name,
                         const std::shared_ptr<GenerationStore>& store);

  /// The one refresh path for a deferred view: consolidates its pending
  /// batch, reverts and replays it (or, for a single-table single-op
  /// batch, maintains the post-batch state directly), advances its
  /// delta-log mark and, outside a transaction, publishes a generation.
  /// Caller holds `mu_`.
  deferred::RefreshStats RefreshLocked(const std::string& view);
  StatementResult DeleteLocked(const std::string& table,
                               const std::vector<Row>& keys);

  PlanPolicy CurrentPolicy() const {
    return in_transaction_ ? PlanPolicy::kConstraintFree
                           : PlanPolicy::kDefault;
  }

  Catalog catalog_;
  MaintenanceOptions default_options_;
  /// Row and aggregation views alike, by name.
  std::map<std::string, std::unique_ptr<ViewMaintainer>> views_;

  struct ViewStats {
    int64_t statements = 0;
    int64_t delta_rows = 0;
    int64_t primary_rows = 0;
    int64_t secondary_rows = 0;
    double micros = 0;
  };
  void Accumulate(const std::string& view, const MaintenanceStats& stats);

  std::map<std::string, ViewStats> stats_;

  /// Serializes statements, refreshes, and reads against the background
  /// worker. Recursive because cascading deletes and inline threshold
  /// refreshes re-enter locked paths.
  mutable std::recursive_mutex mu_;
  /// Orders access to the `snapshots_` map only (never held while
  /// taking `mu_`; Create/Drop take it under `mu_`, readers take it
  /// alone). The stores themselves synchronize their own generation
  /// swaps — snapshot readers never need `mu_`.
  mutable std::mutex snapshot_mu_;
  std::map<std::string, std::shared_ptr<GenerationStore>> snapshots_;
  deferred::DeltaLog delta_log_;
  deferred::RefreshScheduler scheduler_;
  deferred::BackgroundRefresher refresher_;

  struct UndoEntry {
    enum class Kind { kDeleteInserted, kReinsertDeleted, kReverseUpdate };
    Kind kind;
    std::string table;
    std::vector<Row> rows;      // inserted rows / deleted rows / new rows
    std::vector<Row> old_rows;  // kReverseUpdate only
  };
  bool in_transaction_ = false;
  std::vector<UndoEntry> undo_log_;
};

}  // namespace ojv

#endif  // OJV_IVM_DATABASE_H_

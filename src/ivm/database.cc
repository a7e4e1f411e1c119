#include "ivm/database.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_set>

#include "common/check.h"
#include "deferred/consolidate.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/windowed.h"

namespace ojv {
namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct KeyHash {
  size_t operator()(const Row& key) const {
    size_t h = 0;
    for (const Value& v : key) h = h * 31 + v.Hash();
    return h;
  }
};

/// Publishes a deferred view's live backlog pressure. Every due scan
/// calls this for every threshold view (due or not), so the gauges
/// track the backlog statement-by-statement; RecordRefresh writes the
/// same staleness gauge with the consumed batch's figure, which is the
/// identical quantity at the refresh instant.
void PublishViewPressure(const std::string& view, int64_t pending_rows,
                         double staleness_micros) {
  obs::Registry& reg = obs::Registry::Global();
  reg.GetGauge(obs::LabeledMetric("ojv.deferred.view.pending_rows", "view",
                                  view))
      .Set(pending_rows);
  reg.GetGauge(obs::LabeledMetric("ojv.deferred.view.staleness_micros",
                                  "view", view))
      .Set(static_cast<int64_t>(staleness_micros));
}

/// Read latency and stale-read count of one snapshot read.
void RecordServeRead(std::chrono::steady_clock::time_point start,
                     const ViewSnapshot& snap) {
  obs::Registry::Global()
      .GetHistogram("ojv.serve.read_micros")
      .Record(static_cast<int64_t>(MicrosSince(start)));
  if (snap.valid() && snap.staleness_micros(obs::SteadyNowMicros()) > 0) {
    static obs::Counter& stale =
        obs::Registry::Global().GetCounter("ojv.serve.stale_reads");
    stale.Add(1);
  }
}

}  // namespace

void Database::set_trace(obs::TraceContext* trace) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  default_options_.trace = trace;
  for (auto& [name, view] : views_) view->set_trace(trace);
}

ViewMaintainer* Database::CreateMaterializedView(
    ViewDef view, const MaintenanceOptions* options) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return AddView(std::make_unique<ViewMaintainer>(
      &catalog_, std::move(view),
      options != nullptr ? *options : default_options_));
}

AggViewMaintainer* Database::CreateAggregateView(
    ViewDef base, std::vector<ColumnRef> group_by,
    std::vector<AggregateSpec> aggregates, const MaintenanceOptions* options) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return static_cast<AggViewMaintainer*>(AddView(
      std::make_unique<AggViewMaintainer>(
          &catalog_, std::move(base), std::move(group_by),
          std::move(aggregates),
          options != nullptr ? *options : default_options_)));
}

ViewMaintainer* Database::AddView(std::unique_ptr<ViewMaintainer> view) {
  const std::string name = view->view_def().name();
  if (views_.count(name) > 0) return nullptr;
  view->InitializeView();
  ViewMaintainer* raw = view.get();
  views_[name] = std::move(view);
  InstallSnapshotStore(name);
  return raw;
}

ViewMaintainer* Database::GetView(const std::string& name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = views_.find(name);
  return it == views_.end() || it->second->is_aggregate() ? nullptr
                                                          : it->second.get();
}

AggViewMaintainer* Database::GetAggregateView(const std::string& name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = views_.find(name);
  return it == views_.end() || !it->second->is_aggregate()
             ? nullptr
             : static_cast<AggViewMaintainer*>(it->second.get());
}

std::vector<ViewMaintainer*> Database::Views() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<ViewMaintainer*> out;
  out.reserve(views_.size());
  for (auto& [name, view] : views_) {
    if (!view->is_aggregate()) out.push_back(view.get());
  }
  return out;
}

bool Database::DropView(const std::string& name) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (delta_log_.IsConsumer(name)) delta_log_.UnregisterConsumer(name);
  scheduler_.Forget(name);
  stats_.erase(name);
  {
    // Readers still holding a ViewSnapshot keep their pinned generation
    // (and the store) alive through their own refcounts; dropping the
    // map entry only stops new generations from being published.
    std::lock_guard<std::mutex> slock(snapshot_mu_);
    snapshots_.erase(name);
  }
  return views_.erase(name) > 0;
}

bool Database::RowSatisfiesForeignKeys(const std::string& table,
                                       const Row& row) {
  const Table* child = catalog_.GetTable(table);
  for (const ForeignKey& fk : catalog_.foreign_keys()) {
    if (fk.child_table != table) continue;
    Row parent_key;
    parent_key.reserve(fk.child_columns.size());
    bool any_null = false;
    for (const std::string& col : fk.child_columns) {
      const Value& v = row[static_cast<size_t>(child->schema().IndexOf(col))];
      if (v.is_null()) any_null = true;
      parent_key.push_back(v);
    }
    if (any_null) continue;  // NULL FK references nothing
    if (catalog_.GetTable(fk.parent_table)->FindByKey(parent_key) == nullptr) {
      return false;
    }
  }
  return true;
}

std::vector<std::pair<const ForeignKey*, std::vector<Row>>>
Database::ReferencingRows(const std::string& table,
                          const std::vector<Row>& keys) {
  std::vector<std::pair<const ForeignKey*, std::vector<Row>>> out;
  std::vector<const ForeignKey*> fks = catalog_.ForeignKeysReferencing(table);
  if (fks.empty()) return out;
  // A key named twice must not report its children twice.
  std::vector<Row> distinct;
  distinct.reserve(keys.size());
  std::unordered_set<Row, KeyHash> seen;
  for (const Row& key : keys) {
    if (seen.insert(key).second) distinct.push_back(key);
  }
  for (const ForeignKey* fk : fks) {
    const Table* child = catalog_.GetTable(fk->child_table);
    const int index = catalog_.ChildIndexOf(*fk);
    std::vector<Row> hits;
    for (const Row& key : distinct) {
      child->ForEachIndexed(index, key, [&](const Row& row) {
        hits.push_back(row);
        return true;
      });
    }
    if (!hits.empty()) out.emplace_back(fk, std::move(hits));
  }
  return out;
}

void Database::Accumulate(const std::string& view,
                          const MaintenanceStats& stats) {
  ViewStats& total = stats_[view];
  ++total.statements;
  total.delta_rows += stats.delta_rows;
  total.primary_rows += stats.primary_rows;
  total.secondary_rows += stats.secondary_rows;
  total.micros += stats.total_micros;
  // Every maintenance path funnels its stats through here, which makes
  // this the one chokepoint where the stored view's contents may have
  // moved past the published snapshot generation.
  if (auto store = SnapshotStoreFor(view); store != nullptr) {
    store->NoteContentChanged(obs::SteadyNowMicros());
  }
}

std::string Database::StatsReport() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::ostringstream out;
  out << "view                stmts      delta    primary  secondary"
      << "    total-ms" << '\n';
  for (const auto& [name, s] : stats_) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-18s %6lld %10lld %10lld %10lld %11.2f\n",
                  name.c_str(), static_cast<long long>(s.statements),
                  static_cast<long long>(s.delta_rows),
                  static_cast<long long>(s.primary_rows),
                  static_cast<long long>(s.secondary_rows),
                  s.micros / 1000.0);
    out << line;
  }
  return out.str();
}

std::string Database::RefreshReport() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return scheduler_.Report();
}

// --- deferred maintenance -------------------------------------------------

const std::set<std::string>& Database::TablesOf(const std::string& view) const {
  auto it = views_.find(view);
  OJV_CHECK(it != views_.end(), "unknown view");
  return it->second->view_def().tables();
}

void Database::StageDeferred(const std::string& table, deferred::DeltaOp op,
                             const std::vector<Row>& rows, bool update_pair) {
  if (rows.empty() || in_transaction_ || !scheduler_.HasDeferredViews()) {
    return;
  }
  // Stage only when some deferred view will ever consume the entries.
  // Every consumer's published snapshot generation goes stale the
  // moment the change is staged: the stored view is now behind base
  // even though its contents have not moved.
  bool staged = false;
  const int64_t now = obs::SteadyNowMicros();
  for (const std::string& view : scheduler_.DeferredViews()) {
    if (TablesOf(view).count(table) == 0) continue;
    if (!staged) {
      delta_log_.Append(table, op, rows, update_pair);
      staged = true;
    }
    if (auto store = SnapshotStoreFor(view); store != nullptr) {
      store->NoteStaleness(now);
    }
  }
}

bool Database::SetRefreshPolicy(const std::string& view,
                                deferred::RefreshPolicy policy,
                                deferred::ThresholdConfig config) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (views_.count(view) == 0) return false;
  bool was_deferred = scheduler_.IsDeferred(view);
  bool now_deferred = policy != deferred::RefreshPolicy::kImmediate;
  if (was_deferred && !now_deferred) {
    // Drain before going eager: an immediate view is never stale.
    RefreshLocked(view);
    delta_log_.UnregisterConsumer(view);
  }
  scheduler_.SetPolicy(view, policy, config);
  if (!was_deferred && now_deferred) delta_log_.RegisterConsumer(view);
  return true;
}

deferred::RefreshPolicy Database::GetRefreshPolicy(
    const std::string& view) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return scheduler_.policy(view);
}

int64_t Database::PendingRows(const std::string& view) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!scheduler_.IsDeferred(view)) return 0;
  return delta_log_.PendingRows(view, TablesOf(view));
}

int64_t Database::DeltaLogSize() const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return delta_log_.size();
}

deferred::ViewRefreshState Database::RefreshState(
    const std::string& view) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const deferred::ViewRefreshState* state = scheduler_.state(view);
  return state != nullptr ? *state : deferred::ViewRefreshState();
}

deferred::RefreshStats Database::Refresh(const std::string& view) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  return RefreshLocked(view);  // zero stats: unknown views are not deferred
}

std::map<std::string, deferred::RefreshStats> Database::RefreshAll() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::map<std::string, deferred::RefreshStats> out;
  for (const std::string& view : scheduler_.DeferredViews()) {
    out[view] = RefreshLocked(view);
  }
  return out;
}

std::shared_ptr<GenerationStore> Database::SnapshotStoreFor(
    const std::string& name) const {
  std::lock_guard<std::mutex> slock(snapshot_mu_);
  auto it = snapshots_.find(name);
  return it == snapshots_.end() ? nullptr : it->second;
}

void Database::InstallSnapshotStore(const std::string& name) {
  auto store =
      std::make_shared<GenerationStore>(name, views_.at(name)->is_aggregate());
  {
    std::lock_guard<std::mutex> slock(snapshot_mu_);
    snapshots_[name] = store;
  }
  // Inside a transaction the view was built from uncommitted rows; the
  // first read after Commit or Rollback publishes instead.
  if (!in_transaction_) PublishSnapshotLocked(name, store);
}

void Database::PublishSnapshotLocked(
    const std::string& name, const std::shared_ptr<GenerationStore>& store) {
  if (store->UpToDate()) return;  // identical rows — keep the generation
  auto it = views_.find(name);
  if (it == views_.end()) return;  // dropped between lookups
  Relation contents = it->second->Contents();
  const int64_t now = obs::SteadyNowMicros();
  int64_t stale_since = 0;
  if (scheduler_.IsDeferred(name)) {
    // Deltas still pending in the log are not part of the stored
    // contents: the new generation is born stale, aged from the oldest
    // unconsumed change.
    const double age = delta_log_.OldestPendingMicros(name, TablesOf(name));
    if (age > 0) stale_since = now - static_cast<int64_t>(age);
  }
  store->Publish(std::move(contents), now, stale_since);
}

ViewSnapshot Database::SnapshotReadLocked(
    const std::string& name, const std::shared_ptr<GenerationStore>& store) {
  if (in_transaction_) {
    // The stored view holds the transaction's uncommitted writes: this
    // read sees them, but publishing them would hand them to every
    // snapshot reader, and keep them there after a Rollback.
    auto it = views_.find(name);
    if (it == views_.end()) return store->Acquire();  // dropped meanwhile
    return ViewSnapshot(
        std::make_shared<const ViewGeneration>(
            it->second->Contents(), /*number=*/0, store->content_version(),
            obs::SteadyNowMicros(), /*stale_since_micros=*/0),
        nullptr);
  }
  PublishSnapshotLocked(name, store);
  return store->Acquire();
}

ViewSnapshot Database::FreshRead(
    const std::string& name, const std::shared_ptr<GenerationStore>& store) {
  const auto read_start = std::chrono::steady_clock::now();
  ViewSnapshot snap;
  {
    std::lock_guard<std::recursive_mutex> lock(mu_);
    if (!in_transaction_ && scheduler_.IsDeferred(name)) RefreshLocked(name);
    snap = SnapshotReadLocked(name, store);
  }
  RecordServeRead(read_start, snap);
  return snap;
}

ViewSnapshot Database::AcquireSnapshot(const std::string& name) {
  auto store = SnapshotStoreFor(name);
  if (store == nullptr) return ViewSnapshot();
  const auto read_start = std::chrono::steady_clock::now();
  ViewSnapshot snap = store->Acquire();
  // Opportunistic catch-up: if no statement or refresh holds the mutex,
  // publish the stored contents first. Never inside a transaction (its
  // contents are uncommitted).
  if (!snap.valid() || !store->UpToDate()) {
    std::unique_lock<std::recursive_mutex> lock(mu_, std::try_to_lock);
    if (lock.owns_lock() && !in_transaction_) {
      snap = SnapshotReadLocked(name, store);
    }
  }
  RecordServeRead(read_start, snap);
  return snap;
}

ViewSnapshot Database::ReadView(const std::string& name) {
  // Historical contract: ReadView answers for row views only
  // (aggregate views read through ReadAggregateRelation).
  auto store = SnapshotStoreFor(name);
  if (store == nullptr || store->is_aggregate()) return ViewSnapshot();
  return FreshRead(name, store);
}

ViewSnapshot Database::ReadAggregateRelation(const std::string& name) {
  auto store = SnapshotStoreFor(name);
  if (store == nullptr || !store->is_aggregate()) return ViewSnapshot();
  return FreshRead(name, store);
}

deferred::RefreshStats Database::RefreshLocked(const std::string& name) {
  deferred::RefreshStats stats;
  if (!scheduler_.IsDeferred(name)) return stats;  // never stale
  obs::Span refresh_span(default_options_.trace, "deferred.refresh",
                         "deferred");
  refresh_span.AddArg("view", name);
  auto it = views_.find(name);
  OJV_CHECK(it != views_.end(), "unknown view");
  ViewMaintainer* view = it->second.get();

  auto start = std::chrono::steady_clock::now();
  const std::set<std::string>& tables = TablesOf(name);
  stats.staleness_micros = delta_log_.OldestPendingMicros(name, tables);
  std::map<std::string, std::vector<deferred::DeltaEntry>> pending =
      delta_log_.PendingFor(name, tables);
  uint64_t consumed_to = delta_log_.tail();

  if (!pending.empty()) {
    std::vector<deferred::TableDelta> deltas =
        deferred::Consolidate(pending, catalog_);
    std::vector<const deferred::TableDelta*> active;
    for (const deferred::TableDelta& d : deltas) {
      stats.raw_entries += d.raw_entries;
      stats.consolidated_rows += static_cast<int64_t>(d.deletes.size()) +
                                 static_cast<int64_t>(d.inserts.size());
      stats.cancelled_rows += d.cancelled;
      stats.update_pairs += d.update_pairs;
      if (!d.deletes.empty() || !d.inserts.empty()) {
        ++stats.tables_touched;
        active.push_back(&d);
      }
    }

    auto maintain = [&](const MaintenanceStats& m) {
      Accumulate(name, m);
      stats.maintenance_micros += m.total_micros;
    };

    if (active.size() == 1 &&
        (active[0]->deletes.empty() || active[0]->inserts.empty())) {
      // Single-table, single-operation batch: the base table's current
      // (post-batch) state is exactly what one eager statement with the
      // net rows would have seen, so no revert is needed and the
      // foreign-key plan set stays usable.
      const deferred::TableDelta& d = *active[0];
      if (!d.deletes.empty()) {
        maintain(view->OnDelete(d.table, d.deletes, PlanPolicy::kDefault));
      } else {
        maintain(view->OnInsert(d.table, d.inserts, PlanPolicy::kDefault));
      }
    } else if (!active.empty()) {
      // General batch (several tables, or delete+reinsert pairs): revert
      // the raw pending entries newest-first, then replay the net deltas
      // in first-appearance order. Every maintenance call then sees
      // precisely the base state an eager execution of the consolidated
      // statement sequence would have seen. Foreign keys may be violated
      // between those statements (an update pair's halves, a child batch
      // replayed before its parents), so the whole replay runs on the
      // constraint-free plan sets (§6 caveats 1 and 3).
      std::vector<std::pair<const std::string*, const deferred::DeltaEntry*>>
          raw;
      for (const auto& [table, entries] : pending) {
        for (const deferred::DeltaEntry& e : entries) {
          raw.emplace_back(&table, &e);
        }
      }
      std::sort(raw.begin(), raw.end(), [](const auto& a, const auto& b) {
        return a.second->seq > b.second->seq;
      });
      for (const auto& [table, entry] : raw) {
        Table* base = catalog_.GetTable(*table);
        if (entry->op == deferred::DeltaOp::kInsert) {
          Row removed;
          OJV_CHECK(base->DeleteByKey(base->KeyOf(entry->row), &removed),
                    "deferred revert: staged insert not present");
        } else {
          OJV_CHECK(base->Insert(entry->row),
                    "deferred revert: staged delete still present");
        }
      }
      for (const deferred::TableDelta* d : active) {
        Table* base = catalog_.GetTable(d->table);
        maintain(view->OnConsolidatedBatch(base, d->table, d->deletes,
                                           d->inserts,
                                           PlanPolicy::kConstraintFree));
      }
      // Fully-cancelled tables were reverted but have nothing to replay:
      // restore their post-batch state by definition of cancellation
      // (their pre- and post-batch states coincide), so nothing to do.
    }
  }

  delta_log_.AdvanceTo(name, consumed_to);
  delta_log_.TruncateConsumed();
  stats.refresh_micros = MicrosSince(start);
  scheduler_.RecordRefresh(name, stats);
  // The stored view is caught up: publish the refreshed contents so
  // snapshot readers see them without touching the statement mutex.
  // (No-op when the batch was empty.) Inside a transaction the contents
  // hold uncommitted rows; the first read after Commit or Rollback
  // publishes instead.
  if (auto store = SnapshotStoreFor(name);
      store != nullptr && !in_transaction_) {
    PublishSnapshotLocked(name, store);
  }
  refresh_span.AddArg("raw_entries", stats.raw_entries);
  refresh_span.AddArg("consolidated_rows", stats.consolidated_rows);
  refresh_span.AddArg("cancelled_rows", stats.cancelled_rows);
  refresh_span.AddArg("update_pairs", stats.update_pairs);
  refresh_span.AddArg("tables_touched", stats.tables_touched);
  refresh_span.AddArg("maintenance_micros",
                      static_cast<int64_t>(stats.maintenance_micros));
  return stats;
}

void Database::MaybeAutoRefresh(StatementResult* result) {
  if (in_transaction_ || !scheduler_.HasDeferredViews()) return;
  if (refresher_.running()) {
    // The worker's DrainDueViews refreshes the due views; the statement
    // path only needs to wake it when something is due.
    if (!CollectDueViews().empty()) refresher_.Notify();
    return;
  }
  RefreshDueViews(result);
}

void Database::DrainDueViews() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (in_transaction_) return;  // transactions drain at Begin and run eager
  RefreshDueViews(nullptr);
}

std::vector<std::string> Database::CollectDueViews() const {
  std::vector<std::string> due;
  for (const std::string& view : scheduler_.DeferredViews()) {
    if (scheduler_.policy(view) != deferred::RefreshPolicy::kThreshold) {
      continue;
    }
    const std::set<std::string>& tables = TablesOf(view);
    int64_t pending = delta_log_.PendingRows(view, tables);
    double staleness = delta_log_.OldestPendingMicros(view, tables);
    PublishViewPressure(view, pending, staleness);
    if (scheduler_.Due(view, pending, staleness)) due.push_back(view);
  }
  return due;
}

void Database::RefreshDueViews(StatementResult* result) {
  for (const std::string& view : CollectDueViews()) {
    deferred::RefreshStats stats = RefreshLocked(view);
    if (result != nullptr) {
      result->maintenance_micros += stats.maintenance_micros;
      result->view_micros[view] += stats.maintenance_micros;
    }
  }
}

bool Database::StartBackgroundRefresh(std::chrono::milliseconds interval) {
  if (refresher_.running()) return false;
  refresher_.Start(interval, [this] { DrainDueViews(); });
  return true;
}

void Database::StopBackgroundRefresh() { refresher_.Stop(); }

// --- statements -----------------------------------------------------------

void Database::MaintainInsert(const std::string& table,
                              const std::vector<Row>& rows,
                              StatementResult* result) {
  auto start = std::chrono::steady_clock::now();
  for (auto& [name, view] : views_) {
    if (view->view_def().tables().count(table) == 0) continue;
    if (DeferredNow(name)) continue;
    MaintenanceStats stats = view->OnInsert(table, rows, CurrentPolicy());
    Accumulate(name, stats);
    result->view_micros[name] += stats.total_micros;
  }
  result->maintenance_micros += MicrosSince(start);
}

void Database::MaintainDelete(const std::string& table,
                              const std::vector<Row>& rows,
                              StatementResult* result) {
  auto start = std::chrono::steady_clock::now();
  for (auto& [name, view] : views_) {
    if (view->view_def().tables().count(table) == 0) continue;
    if (DeferredNow(name)) continue;
    MaintenanceStats stats = view->OnDelete(table, rows, CurrentPolicy());
    Accumulate(name, stats);
    result->view_micros[name] += stats.total_micros;
  }
  result->maintenance_micros += MicrosSince(start);
}

Database::StatementResult Database::Insert(const std::string& table,
                                           const std::vector<Row>& rows) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::Span span(default_options_.trace, "db.insert", "db");
  span.AddArg("table", table);
  span.AddArg("rows_in", static_cast<int64_t>(rows.size()));
  StatementResult result;
  if (!catalog_.HasTable(table)) {
    result.error = "unknown table " + table;
    return result;
  }
  Table* base = catalog_.GetTable(table);
  std::vector<Row> accepted;
  accepted.reserve(rows.size());
  for (const Row& row : rows) {
    if (!base->AcceptsRow(row) ||
        (!in_transaction_ && !RowSatisfiesForeignKeys(table, row)) ||
        !base->Insert(row)) {
      ++result.rows_rejected;
      continue;
    }
    accepted.push_back(row);
  }
  result.rows_affected = static_cast<int64_t>(accepted.size());
  if (!accepted.empty()) {
    MaintainInsert(table, accepted, &result);
    StageDeferred(table, deferred::DeltaOp::kInsert, accepted,
                  /*update_pair=*/false);
    if (in_transaction_) {
      undo_log_.push_back(
          {UndoEntry::Kind::kDeleteInserted, table, accepted, {}});
    }
  }
  MaybeAutoRefresh(&result);
  span.AddArg("rows_affected", result.rows_affected);
  span.AddArg("rows_rejected", result.rows_rejected);
  return result;
}

Database::StatementResult Database::Delete(const std::string& table,
                                           const std::vector<Row>& keys) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::Span span(default_options_.trace, "db.delete", "db");
  span.AddArg("table", table);
  span.AddArg("rows_in", static_cast<int64_t>(keys.size()));
  StatementResult result = DeleteLocked(table, keys);
  if (result.ok()) MaybeAutoRefresh(&result);
  span.AddArg("rows_affected", result.rows_affected);
  span.AddArg("rows_rejected", result.rows_rejected);
  return result;
}

Database::StatementResult Database::DeleteLocked(const std::string& table,
                                                 const std::vector<Row>& keys) {
  StatementResult result;
  if (!catalog_.HasTable(table)) {
    result.error = "unknown table " + table;
    return result;
  }
  Table* base = catalog_.GetTable(table);
  // A key of the wrong arity names no row: it counts as rejected below
  // and never reaches the FK scan or the base delete.
  std::vector<Row> valid_keys;
  valid_keys.reserve(keys.size());
  for (const Row& key : keys) {
    if (base->AcceptsKey(key)) valid_keys.push_back(key);
  }
  // Referential integrity first: the whole cascade tree is collected
  // before anything changes, so a blocking child anywhere in it rejects
  // the statement with every table untouched. Cascaded children are
  // deleted (and their views maintained) before their parents. Inside a
  // transaction the checks are deferred to Commit and cascades are
  // suppressed (SQL defers the constraint action too).
  DeleteSteps steps;
  if (in_transaction_) {
    steps.emplace_back(table, std::move(valid_keys));
  } else if (!CollectCascade(table, std::move(valid_keys), &steps,
                             &result.error)) {
    return result;
  }
  size_t deleted_here = 0;  // rows of `table` itself: the last step
  for (const auto& [step_table, step_keys] : steps) {
    std::vector<Row> deleted =
        ApplyBaseDelete(catalog_.GetTable(step_table), step_keys);
    deleted_here = deleted.size();
    result.rows_affected += static_cast<int64_t>(deleted.size());
    if (deleted.empty()) continue;
    MaintainDelete(step_table, deleted, &result);
    StageDeferred(step_table, deferred::DeltaOp::kDelete, deleted,
                  /*update_pair=*/false);
    if (in_transaction_) {
      undo_log_.push_back(
          {UndoEntry::Kind::kReinsertDeleted, step_table, deleted, {}});
    }
  }
  result.rows_rejected += static_cast<int64_t>(keys.size() - deleted_here);
  return result;
}

bool Database::CollectCascade(const std::string& table, std::vector<Row> keys,
                              DeleteSteps* steps, std::string* error) {
  std::vector<std::pair<const ForeignKey*, std::vector<Row>>> referencing =
      ReferencingRows(table, keys);
  for (const auto& [fk, child_rows] : referencing) {
    if (!fk->cascading_delete) {
      *error = "delete from " + table + " violates FK from " +
               fk->child_table;
      return false;
    }
  }
  for (const auto& [fk, child_rows] : referencing) {
    const Table* child = catalog_.GetTable(fk->child_table);
    std::vector<Row> child_keys;
    child_keys.reserve(child_rows.size());
    for (const Row& row : child_rows) child_keys.push_back(child->KeyOf(row));
    if (!CollectCascade(fk->child_table, std::move(child_keys), steps,
                        error)) {
      return false;
    }
  }
  steps->emplace_back(table, std::move(keys));
  return true;
}

Database::StatementResult Database::Update(const std::string& table,
                                           const std::vector<Row>& keys,
                                           const std::vector<Row>& new_rows) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  obs::Span span(default_options_.trace, "db.update", "db");
  span.AddArg("table", table);
  span.AddArg("rows_in", static_cast<int64_t>(keys.size()));
  StatementResult result;
  if (!catalog_.HasTable(table)) {
    result.error = "unknown table " + table;
    return result;
  }
  if (keys.size() != new_rows.size()) {
    result.error = "update arity mismatch";
    return result;
  }
  Table* base = catalog_.GetTable(table);
  // Keys must be unchanged (key updates would interact with FKs; model
  // them as explicit delete+insert statements instead), and each may be
  // named once: a second pair would read the first pair's new row as its
  // old row.
  std::unordered_set<Row, KeyHash> seen;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (!base->AcceptsKey(keys[i]) || !base->AcceptsRow(new_rows[i])) {
      result.error = "malformed update row for " + table;
      return result;
    }
    if (!seen.insert(keys[i]).second) {
      result.error = "update names a key twice";
      return result;
    }
    if (base->KeyOf(new_rows[i]) != keys[i]) {
      result.error = "update may not change key columns";
      return result;
    }
    if (!in_transaction_ && !RowSatisfiesForeignKeys(table, new_rows[i])) {
      result.error = "updated row violates a foreign key";
      return result;
    }
  }

  std::vector<Row> old_rows;
  std::vector<Row> applied_new;
  for (size_t i = 0; i < keys.size(); ++i) {
    Row old_row;
    if (!base->DeleteByKey(keys[i], &old_row)) {
      ++result.rows_rejected;
      continue;
    }
    OJV_CHECK(base->Insert(new_rows[i]), "reinsert under same key");
    old_rows.push_back(std::move(old_row));
    applied_new.push_back(new_rows[i]);
  }
  result.rows_affected = static_cast<int64_t>(applied_new.size());
  if (applied_new.empty()) return result;

  auto start = std::chrono::steady_clock::now();
  for (auto& [name, view] : views_) {
    if (view->view_def().tables().count(table) == 0) continue;
    if (DeferredNow(name)) continue;
    MaintenanceStats stats = view->OnUpdate(table, old_rows, applied_new);
    Accumulate(name, stats);
    result.view_micros[name] += stats.total_micros;
  }
  result.maintenance_micros += MicrosSince(start);
  // Stage both halves flagged as an update pair: wherever the refresh
  // boundary falls, their replay must stay on constraint-free plans
  // (§6 caveat 1).
  StageDeferred(table, deferred::DeltaOp::kDelete, old_rows,
                /*update_pair=*/true);
  StageDeferred(table, deferred::DeltaOp::kInsert, applied_new,
                /*update_pair=*/true);
  if (in_transaction_) {
    undo_log_.push_back(
        {UndoEntry::Kind::kReverseUpdate, table, applied_new, old_rows});
  }
  MaybeAutoRefresh(&result);
  span.AddArg("rows_affected", result.rows_affected);
  span.AddArg("rows_rejected", result.rows_rejected);
  return result;
}

bool Database::BeginTransaction() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (in_transaction_) return false;
  // Deferred views catch up first: statements inside the transaction are
  // maintained eagerly (on constraint-free plans), and rollback's
  // inverse statements assume the views reflect all prior statements.
  for (const std::string& view : scheduler_.DeferredViews()) {
    RefreshLocked(view);
  }
  in_transaction_ = true;
  undo_log_.clear();
  return true;
}

Database::StatementResult Database::Commit() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  StatementResult result;
  if (!in_transaction_) {
    result.error = "no open transaction";
    return result;
  }
  std::string violation;
  if (!catalog_.CheckForeignKeys(&violation)) {
    Rollback();
    result.error = "commit aborted: " + violation;
    return result;
  }
  in_transaction_ = false;
  undo_log_.clear();
  return result;
}

bool Database::Rollback() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  if (!in_transaction_) return false;
  // Replay inverses newest-first; maintenance stays constraint-free
  // (in_transaction_ remains set until we are done).
  StatementResult scratch;
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    Table* base = catalog_.GetTable(it->table);
    switch (it->kind) {
      case UndoEntry::Kind::kDeleteInserted: {
        std::vector<Row> keys;
        for (const Row& row : it->rows) keys.push_back(base->KeyOf(row));
        std::vector<Row> deleted = ApplyBaseDelete(base, keys);
        OJV_CHECK(deleted.size() == keys.size(), "rollback delete mismatch");
        MaintainDelete(it->table, deleted, &scratch);
        break;
      }
      case UndoEntry::Kind::kReinsertDeleted: {
        std::vector<Row> inserted = ApplyBaseInsert(base, it->rows);
        OJV_CHECK(inserted.size() == it->rows.size(),
                  "rollback insert mismatch");
        MaintainInsert(it->table, inserted, &scratch);
        break;
      }
      case UndoEntry::Kind::kReverseUpdate: {
        std::vector<Row> keys;
        for (const Row& row : it->rows) keys.push_back(base->KeyOf(row));
        std::vector<Row> current;
        ApplyBaseUpdate(base, keys, it->old_rows, &current);
        // These reversals bypass Accumulate (rollback is not a
        // maintenance statement), so invalidate the snapshot
        // generations explicitly.
        const int64_t now = obs::SteadyNowMicros();
        for (auto& [name, view] : views_) {
          if (view->view_def().tables().count(it->table) > 0) {
            view->OnUpdate(it->table, current, it->old_rows);
            if (auto store = SnapshotStoreFor(name)) {
              store->NoteContentChanged(now);
            }
          }
        }
        break;
      }
    }
  }
  undo_log_.clear();
  in_transaction_ = false;
  return true;
}

}  // namespace ojv

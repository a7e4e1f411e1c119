#include "replay.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "deferred/consolidate.h"
#include "obs/windowed.h"
#include "tpch/tpch_schema.h"

namespace perfbench {
namespace {

using Span = SpanLog::Scope;
using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const char* OpSpanName(OpType type) {
  switch (type) {
    case OpType::kInsert:
      return "op.insert";
    case OpType::kDelete:
      return "op.delete";
    case OpType::kUpdate:
      return "op.update";
    case OpType::kRefresh:
      return "op.refresh";
    case OpType::kRead:
      return "op.read";
  }
  return "op.unknown";
}

}  // namespace

SpanLog::Scope::Scope(SpanLog* log, const char* name, const char* view)
    : log_(log) {
  if (log_ == nullptr) return;
  index_ = static_cast<int>(log_->spans_.size());
  log_->spans_.push_back({name, log_->open_, SteadyNowNs(), 0, -1, view});
  log_->open_ = index_;
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& span = log_->spans_[static_cast<size_t>(index_)];
  span.end_ns = SteadyNowNs();
  log_->open_ = span.parent;
}

Replay::Replay(Workload workload, ojv::tpch::Dbgen* dbgen, SpanLog* spans,
               ojv::obs::TraceContext* trace)
    : spans_(spans), trace_(trace) {
  ojv::tpch::CreateSchema(&catalog_);
  auto start = Clock::now();
  dbgen->Populate(&catalog_);
  setup_.populate_s = SecondsSince(start);
  for (ojv::ViewDef def : WorkloadViews(workload, catalog_)) {
    const std::string name = def.name();
    View& view = views_[name];
    start = Clock::now();
    view.maintainer =
        std::make_unique<ojv::ViewMaintainer>(&catalog_, std::move(def));
    setup_.plan_build_ms += 1e3 * SecondsSince(start);
    start = Clock::now();
    view.maintainer->InitializeView();
    setup_.init_view_ms += 1e3 * SecondsSince(start);
    view.store = std::make_shared<ojv::GenerationStore>(name, false);
    view.store->Publish(view.maintainer->view().AsRelation(),
                        ojv::obs::SteadyNowMicros(), 0);
    if (Deferred(workload)) log_.RegisterConsumer(name);
  }
}

void Replay::set_tracing(bool on) {
  active_ = on ? spans_ : nullptr;
  for (auto& [name, view] : views_) {
    view.maintainer->set_trace(on ? trace_ : nullptr);
  }
}

bool Replay::Apply(const Op& op) {
  Span root(active_, OpSpanName(op.type));
  switch (op.type) {
    case OpType::kInsert:
      return Insert(op);
    case OpType::kDelete:
      return Delete(op);
    case OpType::kUpdate:
      return Update(op);
    case OpType::kRefresh:
      for (const std::string& name : op.views) Refresh(name);
      return true;
    case OpType::kRead:
      return Read(op);
  }
  return false;
}

bool Replay::CheckForeignKeys(const std::string& table,
                              const std::vector<Row>& rows) {
  Span span(active_, "catalog.fk_check");
  const ojv::Table* child = catalog_.GetTable(table);
  int64_t lookups = 0;
  bool ok = true;
  for (const Row& row : rows) {
    for (const ojv::ForeignKey& fk : catalog_.foreign_keys()) {
      if (fk.child_table != table) continue;
      Row parent_key;
      bool any_null = false;
      for (const std::string& col : fk.child_columns) {
        const ojv::Value& v =
            row[static_cast<size_t>(child->schema().IndexOf(col))];
        any_null = any_null || v.is_null();
        parent_key.push_back(v);
      }
      if (any_null) continue;
      ++lookups;
      if (catalog_.GetTable(fk.parent_table)->FindByKey(parent_key) ==
          nullptr) {
        ok = false;
      }
    }
  }
  span.set_arg(lookups);
  if (active_ != nullptr) counters_.fk_lookups += lookups;
  return ok;
}

void Replay::Maintain(const std::string& name, View* view,
                      const std::function<ojv::MaintenanceStats()>& call) {
  Span span(active_, "ivm.maintain", name.c_str());
  const ojv::MaintenanceStats stats = call();
  view->changed_since_publish += stats.primary_rows + stats.secondary_rows;
  view->store->NoteContentChanged(ojv::obs::SteadyNowMicros());
  if (active_ == nullptr) return;
  ++counters_.maintain_calls;
  counters_.delta_rows += stats.delta_rows;
  counters_.primary_rows += stats.primary_rows;
  counters_.secondary_rows += stats.secondary_rows;
  counters_.primary_micros += stats.primary_micros;
  counters_.apply_micros += stats.apply_micros;
  counters_.secondary_micros += stats.secondary_micros;
}

void Replay::Stage(const std::string& table, ojv::deferred::DeltaOp op,
                   const std::vector<Row>& rows, bool update_pair) {
  if (rows.empty()) return;
  for (const auto& [name, view] : views_) {
    if (log_.IsConsumer(name) && Reads(view, table)) {
      Span span(active_, "deferred.stage");
      log_.Append(table, op, rows, update_pair);
      return;
    }
  }
}

bool Replay::Insert(const Op& op) {
  const bool fk_ok = CheckForeignKeys(op.table, op.rows);
  std::vector<Row> inserted;
  {
    Span span(active_, "catalog.base_apply");
    inserted = ojv::ApplyBaseInsert(catalog_.GetTable(op.table), op.rows);
  }
  for (auto& [name, view] : views_) {
    if (log_.IsConsumer(name) || !Reads(view, op.table)) continue;
    Maintain(name, &view, [&] {
      return view.maintainer->OnInsert(op.table, inserted);
    });
  }
  Stage(op.table, ojv::deferred::DeltaOp::kInsert, inserted, false);
  return fk_ok && inserted.size() == op.rows.size();
}

bool Replay::Delete(const Op& op) {
  // Database::ReferencingRows: a scan of every child table per parent
  // delete. Any referencing row rejects the statement (no cascades).
  bool referenced = false;
  {
    Span span(active_, "catalog.fk_child_scan");
    int64_t scanned = 0;
    for (const ojv::ForeignKey* fk :
         catalog_.ForeignKeysReferencing(op.table)) {
      const ojv::Table* child = catalog_.GetTable(fk->child_table);
      std::vector<int> positions;
      for (const std::string& col : fk->child_columns) {
        positions.push_back(child->schema().IndexOf(col));
      }
      child->ForEach([&](const Row& row) {
        ++scanned;
        Row ref;
        for (int p : positions) ref.push_back(row[static_cast<size_t>(p)]);
        for (const Row& key : op.rows) referenced = referenced || key == ref;
      });
    }
    span.set_arg(scanned);
    if (active_ != nullptr) counters_.fk_child_scan_rows += scanned;
  }
  if (referenced) return false;
  std::vector<Row> deleted;
  {
    Span span(active_, "catalog.base_apply");
    deleted = ojv::ApplyBaseDelete(catalog_.GetTable(op.table), op.rows);
  }
  if (!deleted.empty()) {
    for (auto& [name, view] : views_) {
      if (log_.IsConsumer(name) || !Reads(view, op.table)) continue;
      Maintain(name, &view, [&] {
        return view.maintainer->OnDelete(op.table, deleted);
      });
    }
  }
  Stage(op.table, ojv::deferred::DeltaOp::kDelete, deleted, false);
  return deleted.size() == op.rows.size();
}

bool Replay::Update(const Op& op) {
  if (!CheckForeignKeys(op.table, op.new_rows)) return false;
  std::vector<Row> old_rows;
  {
    Span span(active_, "catalog.base_apply");
    ojv::ApplyBaseUpdate(catalog_.GetTable(op.table), op.rows, op.new_rows,
                         &old_rows);
  }
  if (old_rows.size() != op.rows.size()) return false;
  for (auto& [name, view] : views_) {
    if (log_.IsConsumer(name) || !Reads(view, op.table)) continue;
    Maintain(name, &view, [&] {
      return view.maintainer->OnUpdate(op.table, old_rows, op.new_rows);
    });
  }
  Stage(op.table, ojv::deferred::DeltaOp::kDelete, old_rows, true);
  Stage(op.table, ojv::deferred::DeltaOp::kInsert, op.new_rows, true);
  return true;
}

void Replay::Refresh(const std::string& view_name) {
  // Span view labels point at the map's keys, which outlive the spans.
  const auto it = views_.find(view_name);
  OJV_CHECK(it != views_.end(), "unknown view");
  const std::string& name = it->first;
  View& view = it->second;
  const std::set<std::string>& tables = view.maintainer->view_def().tables();
  std::map<std::string, std::vector<ojv::deferred::DeltaEntry>> pending;
  std::vector<ojv::deferred::TableDelta> deltas;
  uint64_t consumed_to = 0;
  std::vector<const ojv::deferred::TableDelta*> active;
  {
    Span span(active_, "deferred.consolidate");
    pending = log_.PendingFor(name, tables);
    consumed_to = log_.tail();
    deltas = ojv::deferred::Consolidate(pending, catalog_);
    for (const ojv::deferred::TableDelta& d : deltas) {
      if (active_ != nullptr) {
        counters_.raw_entries += d.raw_entries;
        counters_.consolidated_rows +=
            static_cast<int64_t>(d.deletes.size() + d.inserts.size());
        counters_.cancelled_rows += d.cancelled;
      }
      if (!d.deletes.empty() || !d.inserts.empty()) active.push_back(&d);
    }
  }
  if (active.size() == 1 &&
      (active[0]->deletes.empty() || active[0]->inserts.empty())) {
    // Single-table, single-operation batch: maintained as one statement
    // against the post-batch base, no revert.
    const ojv::deferred::TableDelta& d = *active[0];
    Span span(active_, "deferred.replay");
    Maintain(name, &view, [&] {
      return d.deletes.empty() ? view.maintainer->OnInsert(d.table, d.inserts)
                               : view.maintainer->OnDelete(d.table, d.deletes);
    });
  } else if (!active.empty()) {
    {
      // Revert the raw entries newest-first, back to the pre-batch base.
      Span span(active_, "deferred.revert");
      std::vector<std::pair<const std::string*,
                            const ojv::deferred::DeltaEntry*>> raw;
      for (const auto& [table, entries] : pending) {
        for (const ojv::deferred::DeltaEntry& e : entries) {
          raw.emplace_back(&table, &e);
        }
      }
      std::sort(raw.begin(), raw.end(), [](const auto& a, const auto& b) {
        return a.second->seq > b.second->seq;
      });
      for (const auto& [table, entry] : raw) {
        ojv::Table* base = catalog_.GetTable(*table);
        if (entry->op == ojv::deferred::DeltaOp::kInsert) {
          Row key;
          for (int p : base->key_positions()) {
            key.push_back(entry->row[static_cast<size_t>(p)]);
          }
          Row removed;
          OJV_CHECK(base->DeleteByKey(key, &removed), "revert: insert missing");
        } else {
          OJV_CHECK(base->Insert(entry->row), "revert: delete present");
        }
      }
    }
    Span span(active_, "deferred.replay");
    for (const ojv::deferred::TableDelta* d : active) {
      Maintain(name, &view, [&] {
        return view.maintainer->OnConsolidatedBatch(
            catalog_.GetTable(d->table), d->table, d->deletes, d->inserts,
            ojv::PlanPolicy::kConstraintFree);
      });
    }
  }
  {
    Span span(active_, "deferred.advance");
    log_.AdvanceTo(name, consumed_to);
    log_.TruncateConsumed();
  }
  Publish(name, &view);
}

void Replay::Publish(const std::string& name, View* view) {
  Span span(active_, "serve.publish", name.c_str());
  if (view->store->UpToDate()) return;
  ojv::Relation contents = view->maintainer->view().AsRelation();
  const int64_t copied = contents.size();
  view->store->Publish(std::move(contents), ojv::obs::SteadyNowMicros(), 0);
  span.set_arg(copied);
  if (active_ != nullptr) {
    counters_.publish_rows_copied += copied;
    counters_.published_changed_rows += view->changed_since_publish;
  }
  view->changed_since_publish = 0;
}

bool Replay::Read(const Op& op) {
  std::vector<ojv::ViewSnapshot> pinned;
  for (const std::string& view_name : op.views) {
    const auto it = views_.find(view_name);
    if (it == views_.end()) return false;
    const std::string& name = it->first;
    View& view = it->second;
    if (log_.IsConsumer(name)) Refresh(name);
    Publish(name, &view);
    Span span(active_, "serve.acquire", name.c_str());
    pinned.push_back(view.store->Acquire());
  }
  return std::all_of(pinned.begin(), pinned.end(),
                     [](const ojv::ViewSnapshot& s) { return s.valid(); });
}

void Replay::CatchUp() {
  for (auto& [name, view] : views_) {
    if (log_.IsConsumer(name)) Refresh(name);
  }
}

}  // namespace perfbench

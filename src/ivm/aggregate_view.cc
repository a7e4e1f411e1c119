#include "ivm/aggregate_view.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.h"
#include "exec/evaluator.h"
#include "obs/metrics.h"

namespace ojv {
namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Full evaluation of the (non-aggregated) base view. Routed through the
// inner maintainer's table cache so the dirty MIN/MAX group refresh —
// which runs *inside* a maintenance statement — reuses the base tables
// already materialized for the delta evaluations instead of
// re-materializing every table per refresh.
Relation EvaluateBaseView(const Catalog& catalog, ViewMaintainer& planner) {
  Evaluator evaluator(&catalog);
  evaluator.set_table_cache(planner.table_cache());
  evaluator.set_exec(planner.exec_config(), planner.thread_pool());
  return evaluator.EvalToRelation(planner.view_def().WithProjection());
}

}  // namespace

AggViewMaintainer::AggViewMaintainer(const Catalog* catalog, ViewDef base,
                                     std::vector<ColumnRef> group_by,
                                     std::vector<AggregateSpec> aggregates,
                                     MaintenanceOptions options)
    : catalog_(catalog),
      group_by_(std::move(group_by)),
      aggregates_(std::move(aggregates)) {
  // Aggregation views always compute ΔV^I from base tables (§3.3/§5.3).
  options.secondary_strategy = SecondaryStrategy::kFromBaseTables;
  // Heavy-light diversion happens in the wrapper, before the group
  // merge; the inner plan-set maintainers must never divert themselves.
  const SkewMode skew = options.skew;
  options.skew = SkewMode::kUniform;
  inner_ = std::make_unique<ViewMaintainer>(catalog, base, options);
  if (options.exploit_foreign_keys) {
    MaintenanceOptions fkfree = options;
    fkfree.exploit_foreign_keys = false;
    fkfree_inner_ =
        std::make_unique<ViewMaintainer>(catalog, std::move(base), fkfree);
  }
  if (skew == SkewMode::kHeavyLight) {
    heavy_ = std::make_unique<HeavyLightController>(
        catalog, inner_->view_def(), options.heavy);
    heavy_->set_drain_hook([this] { DrainHeavyState(); });
  }

  const BoundSchema& schema = inner_->view_def().output_schema();
  OJV_CHECK(!group_by_.empty(), "aggregation view requires group-by columns");
  for (const ColumnRef& ref : group_by_) {
    group_positions_.push_back(schema.IndexOf(ref));
  }
  for (const AggregateSpec& spec : aggregates_) {
    OJV_CHECK(!spec.name.empty(), "aggregate requires an output name");
    if (spec.kind == AggregateSpec::Kind::kCountStar) {
      agg_positions_.push_back(-1);
    } else {
      agg_positions_.push_back(schema.IndexOf(spec.column));
    }
  }
}

void AggViewMaintainer::ExposeNotNullCounts() {
  OJV_CHECK(notnull_tables_.empty(), "already exposed");
  OJV_CHECK(groups_.empty(), "must be configured before InitializeView");
  // A table is null-extendable iff some term of the normal form omits it.
  const BoundSchema& schema = inner_->view_def().output_schema();
  for (const std::string& table : inner_->view_def().tables()) {
    bool omitted_somewhere = false;
    for (const Term& term : inner_->terms()) {
      if (term.source.count(table) == 0) {
        omitted_somewhere = true;
        break;
      }
    }
    if (omitted_somewhere) {
      // Count via COUNT(key0): piggyback on the aggregate machinery.
      AggregateSpec spec;
      spec.kind = AggregateSpec::Kind::kCount;
      const std::vector<int>& keys = schema.KeyPositions(table);
      const BoundColumn& col = schema.column(keys[0]);
      spec.column = ColumnRef{col.table, col.column};
      spec.name = "notnull_" + table;
      agg_positions_.push_back(schema.IndexOf(spec.column));
      aggregates_.push_back(std::move(spec));
      notnull_tables_.emplace_back(table, keys[0]);
    }
  }
}

void AggViewMaintainer::ApplyRow(const Row& row, int sign,
                                 GroupMap* groups) const {
  Row key;
  key.reserve(group_positions_.size());
  for (int p : group_positions_) key.push_back(row[static_cast<size_t>(p)]);
  Accumulator& acc = (*groups)[key];
  if (acc.sums.empty()) {
    acc.sums.assign(aggregates_.size(), 0.0);
    acc.nonnull.assign(aggregates_.size(), 0);
    acc.extremes.assign(aggregates_.size(), Value::Null());
  }
  acc.row_count += sign;
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (agg_positions_[i] < 0) continue;  // COUNT(*) uses row_count
    const Value& v = row[static_cast<size_t>(agg_positions_[i])];
    if (v.is_null()) continue;
    acc.nonnull[i] += sign;
    switch (aggregates_[i].kind) {
      case AggregateSpec::Kind::kSum:
        acc.sums[i] += sign * v.AsDouble();
        break;
      case AggregateSpec::Kind::kMin:
      case AggregateSpec::Kind::kMax: {
        const bool is_min = aggregates_[i].kind == AggregateSpec::Kind::kMin;
        if (sign > 0) {
          // Inserts tighten the extreme directly.
          if (acc.extremes[i].is_null() ||
              (is_min ? v.SortCompare(acc.extremes[i]) < 0
                      : v.SortCompare(acc.extremes[i]) > 0)) {
            acc.extremes[i] = v;
          }
        } else if (!acc.extremes[i].is_null() &&
                   v.SortCompare(acc.extremes[i]) == 0) {
          // The extreme left: not self-maintainable; mark for a
          // per-group recomputation.
          acc.dirty = true;
        }
        break;
      }
      default:
        break;
    }
  }
  OJV_CHECK(acc.row_count >= 0, "negative group count");
  if (acc.row_count == 0) groups->erase(key);
}

void AggViewMaintainer::ApplyDeltaRows(const Relation& delta, int sign) {
  for (const Row& row : delta.rows()) ApplyRow(row, sign, &groups_);
}

void AggViewMaintainer::InitializeView() {
  groups_.clear();
  Relation contents = EvaluateBaseView(*catalog_, *inner_);
  for (const Row& row : contents.rows()) ApplyRow(row, +1, &groups_);
}

void AggViewMaintainer::CheckHeavyConflict(const std::string& table,
                                           bool can_divert) const {
  if (heavy_ == nullptr || draining_heavy_) return;
  OJV_CHECK(!heavy_->NeedsDrainBefore(table, can_divert),
            "pending heavy-key state conflicts with this operation; call "
            "PrepareHeavyForOp before applying the base change");
}

void AggViewMaintainer::PrepareHeavyForOp(const std::string& table,
                                          PlanPolicy policy, bool is_update) {
  if (heavy_ == nullptr || draining_heavy_) return;
  if (heavy_->NeedsDrainBefore(table, CanDivert(table, policy, is_update))) {
    DrainHeavyState();
  }
}

MaintenanceStats AggViewMaintainer::DrainHeavyState() {
  MaintenanceStats stats;
  if (heavy_ == nullptr || draining_heavy_ || !heavy_->HasPending()) {
    return stats;
  }
  draining_heavy_ = true;
  HeavyState::DrainBatch batch = heavy_->Take();
  obs::Span span(inner_->trace(), "heavy_state.drain", "ivm");
  span.AddArg("view", inner_->view_def().name());
  span.AddArg("table", batch.table);
  span.AddArg("raw_entries", batch.raw_entries);
  span.AddArg("net_deletes", static_cast<int64_t>(batch.deletes.size()));
  span.AddArg("net_inserts", static_cast<int64_t>(batch.inserts.size()));
  span.AddArg("update_pairs", batch.update_pairs);
  auto start = std::chrono::steady_clock::now();
  const PlanPolicy policy = batch.update_pairs > 0
                                ? PlanPolicy::kConstraintFree
                                : PlanPolicy::kDefault;
  if (!batch.deletes.empty()) {
    stats.Merge(OnDelete(batch.table, batch.deletes, policy));
  }
  if (!batch.inserts.empty()) {
    stats.Merge(OnInsert(batch.table, batch.inserts, policy));
  }
  if constexpr (obs::kEnabled) {
    obs::Registry::Global()
        .GetCounter("ojv.ivm.heavy.drained_rows")
        .Add(static_cast<int64_t>(batch.deletes.size() +
                                  batch.inserts.size()));
  }
  span.FinishWithDuration(MicrosSince(start));
  draining_heavy_ = false;
  return stats;
}

MaintenanceStats AggViewMaintainer::OnInsert(const std::string& table,
                                             const std::vector<Row>& rows,
                                             PlanPolicy policy) {
  ViewMaintainer* planner =
      policy == PlanPolicy::kConstraintFree && fkfree_inner_ != nullptr
          ? fkfree_inner_.get()
          : inner_.get();
  if (heavy_ != nullptr) heavy_->OnInsert(table, rows);
  const bool can_divert =
      CanDivert(table, policy, /*is_update=*/false) && !draining_heavy_;
  CheckHeavyConflict(table, can_divert);
  if (can_divert) {
    std::vector<Row> light =
        heavy_->SplitBatch(table, rows, /*is_insert=*/true);
    MaintenanceStats stats =
        Maintain(planner, table, light, /*is_insert=*/true);
    if (stats_hook_) stats_hook_(table, stats);
    return stats;
  }
  MaintenanceStats stats = Maintain(planner, table, rows, /*is_insert=*/true);
  if (stats_hook_) stats_hook_(table, stats);
  return stats;
}

MaintenanceStats AggViewMaintainer::OnDelete(const std::string& table,
                                             const std::vector<Row>& rows,
                                             PlanPolicy policy) {
  ViewMaintainer* planner =
      policy == PlanPolicy::kConstraintFree && fkfree_inner_ != nullptr
          ? fkfree_inner_.get()
          : inner_.get();
  if (heavy_ != nullptr) heavy_->OnDelete(table, rows);
  const bool can_divert =
      CanDivert(table, policy, /*is_update=*/false) && !draining_heavy_;
  CheckHeavyConflict(table, can_divert);
  if (can_divert) {
    std::vector<Row> light =
        heavy_->SplitBatch(table, rows, /*is_insert=*/false);
    MaintenanceStats stats =
        Maintain(planner, table, light, /*is_insert=*/false);
    if (stats_hook_) stats_hook_(table, stats);
    return stats;
  }
  MaintenanceStats stats = Maintain(planner, table, rows, /*is_insert=*/false);
  if (stats_hook_) stats_hook_(table, stats);
  return stats;
}

MaintenanceStats AggViewMaintainer::OnUpdate(const std::string& table,
                                             const std::vector<Row>& old_rows,
                                             const std::vector<Row>& new_rows) {
  ViewMaintainer* planner =
      fkfree_inner_ != nullptr ? fkfree_inner_.get() : inner_.get();
  if (heavy_ != nullptr) heavy_->OnUpdate(table, old_rows, new_rows);
  const bool can_divert =
      CanDivert(table, PlanPolicy::kConstraintFree, /*is_update=*/true) &&
      !draining_heavy_;
  CheckHeavyConflict(table, can_divert);
  if (can_divert) {
    std::vector<Row> light_old, light_new;
    heavy_->SplitPairs(table, old_rows, new_rows, &light_old, &light_new);
    MaintenanceStats stats =
        Maintain(planner, table, light_old, /*is_insert=*/false);
    stats.Merge(Maintain(planner, table, light_new, /*is_insert=*/true));
    stats.direct_terms = 0;
    stats.indirect_terms = 0;
    if (stats_hook_) stats_hook_(table, stats);
    return stats;
  }
  MaintenanceStats stats = Maintain(planner, table, old_rows,
                                    /*is_insert=*/false);
  stats.Merge(Maintain(planner, table, new_rows, /*is_insert=*/true));
  stats.direct_terms = 0;
  stats.indirect_terms = 0;
  if (stats_hook_) stats_hook_(table, stats);
  return stats;
}

MaintenanceStats AggViewMaintainer::OnConsolidatedBatch(
    Table* base, const std::string& table, const std::vector<Row>& net_deletes,
    const std::vector<Row>& net_inserts, PlanPolicy policy) {
  OJV_CHECK(base != nullptr && base->name() == table,
            "consolidated batch must target its own base table");
  // This entry point applies the base changes itself, so it can honor
  // the pre-apply drain contract internally.
  PrepareHeavyForOp(table, policy);
  MaintenanceStats stats;
  if (!net_deletes.empty()) {
    std::vector<Row> keys;
    keys.reserve(net_deletes.size());
    for (const Row& row : net_deletes) keys.push_back(base->KeyOf(row));
    std::vector<Row> deleted = ApplyBaseDelete(base, keys);
    OJV_CHECK(deleted.size() == net_deletes.size(),
              "consolidated deletes must all be present");
    stats.Merge(OnDelete(table, deleted, policy));
  }
  if (!net_inserts.empty()) {
    std::vector<Row> inserted = ApplyBaseInsert(base, net_inserts);
    OJV_CHECK(inserted.size() == net_inserts.size(),
              "consolidated inserts must all be fresh keys");
    stats.Merge(OnInsert(table, inserted, policy));
  }
  return stats;
}

MaintenanceStats AggViewMaintainer::Maintain(ViewMaintainer* planner,
                                             const std::string& table,
                                             const std::vector<Row>& rows,
                                             bool is_insert) {
  MaintenanceStats stats;
  stats.delta_rows = static_cast<int64_t>(rows.size());
  auto total_start = std::chrono::steady_clock::now();
  if (rows.empty() || planner->DeltaIsEmpty(table)) {
    stats.fk_fast_path = planner->DeltaIsEmpty(table);
    stats.total_micros = MicrosSince(total_start);
    return stats;
  }

  Relation delta_t(Evaluator::SchemaFor(*catalog_->GetTable(table)));
  for (const Row& row : rows) delta_t.Add(row);

  // Primary delta, aggregated and merged with the update's sign.
  auto primary_start = std::chrono::steady_clock::now();
  Relation primary = planner->ComputePrimaryDeltaRelation(table, delta_t);
  stats.primary_rows = primary.size();
  stats.primary_micros = MicrosSince(primary_start);

  auto apply_start = std::chrono::steady_clock::now();
  ApplyDeltaRows(primary, is_insert ? +1 : -1);
  stats.apply_micros = MicrosSince(apply_start);

  // Secondary delta from base tables, applied with the opposite sign:
  // after an insertion, subsumed orphans leave the (pre-aggregation)
  // view; after a deletion, new orphans enter it.
  SecondaryDeltaEngine* secondary = planner->secondary_engine(table);
  if (secondary != nullptr) {
    auto secondary_start = std::chrono::steady_clock::now();
    std::vector<Row> candidates =
        secondary->CandidatesFromBaseTables(primary, delta_t, is_insert);
    for (const Row& row : candidates) {
      ApplyRow(row, is_insert ? -1 : +1, &groups_);
    }
    stats.secondary_rows = static_cast<int64_t>(candidates.size());
    stats.secondary_micros = MicrosSince(secondary_start);
  }
  if (HasMinMax()) {
    auto refresh_start = std::chrono::steady_clock::now();
    RefreshDirtyGroups();
    stats.secondary_micros += MicrosSince(refresh_start);
  }
  stats.total_micros = MicrosSince(total_start);
  return stats;
}

Relation AggViewMaintainer::GroupsToRelation(const GroupMap& groups) const {
  const BoundSchema& base_schema = inner_->view_def().output_schema();
  BoundSchema schema;
  for (size_t i = 0; i < group_by_.size(); ++i) {
    BoundColumn col = base_schema.column(group_positions_[i]);
    col.key_ordinal = -1;
    schema.AddColumn(col);
  }
  schema.AddColumn(BoundColumn{"#agg", "row_count", ValueType::kInt64, -1});
  for (const AggregateSpec& spec : aggregates_) {
    schema.AddColumn(BoundColumn{"#agg", spec.name, ValueType::kFloat64, -1});
  }
  Relation out(schema);
  for (const auto& [key, acc] : groups) {
    Row row = key;
    row.push_back(Value::Int64(acc.row_count));
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      switch (aggregates_[i].kind) {
        case AggregateSpec::Kind::kCountStar:
          row.push_back(Value::Int64(acc.row_count));
          break;
        case AggregateSpec::Kind::kCount:
          row.push_back(Value::Int64(acc.nonnull[i]));
          break;
        case AggregateSpec::Kind::kSum:
          row.push_back(acc.nonnull[i] == 0 ? Value::Null()
                                            : Value::Float64(acc.sums[i]));
          break;
        case AggregateSpec::Kind::kMin:
        case AggregateSpec::Kind::kMax:
          row.push_back(acc.nonnull[i] == 0 ? Value::Null()
                                            : acc.extremes[i]);
          break;
      }
    }
    out.Add(std::move(row));
  }
  return out;
}

bool AggViewMaintainer::HasMinMax() const {
  for (const AggregateSpec& spec : aggregates_) {
    if (spec.kind == AggregateSpec::Kind::kMin ||
        spec.kind == AggregateSpec::Kind::kMax) {
      return true;
    }
  }
  return false;
}

void AggViewMaintainer::RefreshDirtyGroups() {
  bool any_dirty = false;
  for (const auto& [key, acc] : groups_) {
    if (acc.dirty) {
      any_dirty = true;
      break;
    }
  }
  if (!any_dirty) return;
  // One pass over the base view recomputes the extremes of every dirty
  // group (counts and sums are still exact and untouched).
  for (auto& [key, acc] : groups_) {
    if (!acc.dirty) continue;
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      if (aggregates_[i].kind == AggregateSpec::Kind::kMin ||
          aggregates_[i].kind == AggregateSpec::Kind::kMax) {
        acc.extremes[i] = Value::Null();
      }
    }
  }
  Relation contents = EvaluateBaseView(*catalog_, *inner_);
  for (const Row& row : contents.rows()) {
    Row key;
    key.reserve(group_positions_.size());
    for (int p : group_positions_) key.push_back(row[static_cast<size_t>(p)]);
    auto it = groups_.find(key);
    if (it == groups_.end() || !it->second.dirty) continue;
    Accumulator& acc = it->second;
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      const bool is_min = aggregates_[i].kind == AggregateSpec::Kind::kMin;
      if (!is_min && aggregates_[i].kind != AggregateSpec::Kind::kMax) {
        continue;
      }
      const Value& v = row[static_cast<size_t>(agg_positions_[i])];
      if (v.is_null()) continue;
      if (acc.extremes[i].is_null() ||
          (is_min ? v.SortCompare(acc.extremes[i]) < 0
                  : v.SortCompare(acc.extremes[i]) > 0)) {
        acc.extremes[i] = v;
      }
    }
  }
  for (auto& [key, acc] : groups_) acc.dirty = false;
}

Relation AggViewMaintainer::AsRelation() const {
  // Dirty MIN/MAX groups are refreshed lazily by maintenance; a const
  // snapshot of a dirty state would be stale, so maintenance refreshes
  // eagerly at the end of each statement (see Maintain).
  return GroupsToRelation(groups_);
}

Relation AggViewMaintainer::Recompute() const {
  GroupMap groups;
  Relation contents = EvaluateBaseView(*catalog_, *inner_);
  for (const Row& row : contents.rows()) ApplyRow(row, +1, &groups);
  return GroupsToRelation(groups);
}

bool AggViewMaintainer::MatchesRecompute(double rel_tol,
                                         std::string* diff) const {
  GroupMap expected;
  Relation contents = EvaluateBaseView(*catalog_, *inner_);
  for (const Row& row : contents.rows()) ApplyRow(row, +1, &expected);

  auto describe_key = [](const Row& key) {
    std::string out;
    for (const Value& v : key) out += v.ToString() + "|";
    return out;
  };
  if (expected.size() != groups_.size()) {
    if (diff != nullptr) {
      *diff = "group count mismatch: " + std::to_string(groups_.size()) +
              " maintained vs " + std::to_string(expected.size()) +
              " recomputed";
    }
    return false;
  }
  for (const auto& [key, exp] : expected) {
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      if (diff != nullptr) *diff = "missing group " + describe_key(key);
      return false;
    }
    const Accumulator& got = it->second;
    if (got.row_count != exp.row_count || got.nonnull != exp.nonnull) {
      if (diff != nullptr) {
        *diff = "count mismatch in group " + describe_key(key);
      }
      return false;
    }
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      if (aggregates_[i].kind != AggregateSpec::Kind::kMin &&
          aggregates_[i].kind != AggregateSpec::Kind::kMax) {
        continue;
      }
      if (got.nonnull[i] > 0 && got.extremes[i] != exp.extremes[i]) {
        if (diff != nullptr) {
          *diff = "min/max mismatch in group " + describe_key(key) + ": " +
                  got.extremes[i].ToString() + " vs " +
                  exp.extremes[i].ToString();
        }
        return false;
      }
    }
    for (size_t i = 0; i < aggregates_.size(); ++i) {
      if (aggregates_[i].kind != AggregateSpec::Kind::kSum) continue;
      double scale = std::max({std::abs(exp.sums[i]), std::abs(got.sums[i]),
                               1.0});
      if (std::abs(exp.sums[i] - got.sums[i]) > rel_tol * scale) {
        if (diff != nullptr) {
          *diff = "sum mismatch in group " + describe_key(key) + ": " +
                  std::to_string(got.sums[i]) + " vs " +
                  std::to_string(exp.sums[i]);
        }
        return false;
      }
    }
  }
  if (diff != nullptr) diff->clear();
  return true;
}

}  // namespace ojv

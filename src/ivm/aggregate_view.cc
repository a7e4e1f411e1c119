#include "ivm/aggregate_view.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace ojv {

AggViewMaintainer::AggViewMaintainer(const Catalog* catalog, ViewDef base,
                                     std::vector<ColumnRef> group_by,
                                     std::vector<AggregateSpec> aggregates,
                                     MaintenanceOptions options)
    : ViewMaintainer(catalog, std::move(base), options),
      group_by_(std::move(group_by)),
      aggregates_(std::move(aggregates)) {
  const BoundSchema& schema = view_def().output_schema();
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
  OJV_CHECK(!notnull_exposed_, "already exposed");
  OJV_CHECK(groups_.empty(), "must be configured before InitializeView");
  notnull_exposed_ = true;
  // A table is null-extendable iff some term of the normal form omits it.
  const BoundSchema& schema = view_def().output_schema();
  for (const std::string& table : view_def().tables()) {
    bool omitted_somewhere = false;
    for (const Term& term : terms()) {
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

void AggViewMaintainer::LoadContents(std::vector<Row> rows) {
  groups_.clear();
  for (const Row& row : rows) ApplyRow(row, +1, &groups_);
}

// A deletion can only remove an extreme through ΔV^D and an insertion
// only through ΔV^I (subsumed orphans leave), so each hook refreshes the
// groups it dirtied. The refresh reads the post-update base tables, so
// rows the other hook merges afterwards are already counted in it.
void AggViewMaintainer::ApplyPrimaryDelta(const Relation& primary,
                                          bool is_insert) {
  for (const Row& row : primary.rows()) {
    ApplyRow(row, is_insert ? +1 : -1, &groups_);
  }
  RefreshDirtyGroups();
}

int64_t AggViewMaintainer::ApplySecondaryDelta(SecondaryDeltaEngine* engine,
                                               const Relation& primary,
                                               const Relation& delta_t,
                                               bool is_insert) {
  // Opposite sign: after an insertion, subsumed orphans leave the
  // (pre-aggregation) view; after a deletion, new orphans enter it.
  std::vector<Row> candidates =
      engine->CandidatesFromBaseTables(primary, delta_t, is_insert);
  for (const Row& row : candidates) {
    ApplyRow(row, is_insert ? -1 : +1, &groups_);
  }
  RefreshDirtyGroups();
  return static_cast<int64_t>(candidates.size());
}

Relation AggViewMaintainer::GroupsToRelation(const GroupMap& groups) const {
  const BoundSchema& base_schema = view_def().output_schema();
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
  if (!HasMinMax()) return;
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
  Relation contents = EvaluateView(trace());
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

AggViewMaintainer::GroupMap AggViewMaintainer::RecomputeGroups() const {
  GroupMap groups;
  Relation contents = EvaluateView(/*trace=*/nullptr);
  for (const Row& row : contents.rows()) ApplyRow(row, +1, &groups);
  return groups;
}

Relation AggViewMaintainer::Recompute() const {
  return GroupsToRelation(RecomputeGroups());
}

bool AggViewMaintainer::MatchesRecompute(double rel_tol,
                                         std::string* diff) const {
  const GroupMap expected = RecomputeGroups();

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

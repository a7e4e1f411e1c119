#include "ivm/maintainer.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.h"
#include "ivm/left_deep.h"
#include "ivm/primary_delta.h"
#include "ivm/simplify_tree.h"
#include "obs/metrics.h"

namespace ojv {
namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Only trees with at least one join are worth planning; the FK fast
// path (ΔV^D ≡ σ(ΔT)) has no order to choose.
bool ContainsJoin(const RelExprPtr& expr) {
  if (expr == nullptr) return false;
  if (expr->kind() == RelKind::kJoin) return true;
  for (const RelExprPtr& child : expr->children()) {
    if (ContainsJoin(child)) return true;
  }
  return false;
}

// Every column the view's predicates reference, grouped by table — the
// statistics the estimator can ever be asked for.
void CollectPredicateColumns(
    const RelExprPtr& expr,
    std::unordered_map<std::string, std::vector<std::string>>* out) {
  if (expr == nullptr) return;
  if (expr->predicate() != nullptr) {
    std::vector<ColumnRef> cols;
    expr->predicate()->CollectColumns(&cols);
    for (const ColumnRef& col : cols) (*out)[col.table].push_back(col.column);
  }
  for (const RelExprPtr& child : expr->children()) {
    CollectPredicateColumns(child, out);
  }
}

}  // namespace

const ViewMaintainer::TablePlan& ViewMaintainer::PlanSet::For(
    const std::string& table) const {
  auto it = plans.find(table);
  OJV_CHECK(it != plans.end(), "table not referenced by view");
  return it->second;
}

ViewMaintainer::ViewMaintainer(const Catalog* catalog, ViewDef view,
                               MaintenanceOptions options)
    : catalog_(catalog),
      view_def_(std::move(view)),
      options_(options),
      stats_catalog_(catalog),
      planner_(&stats_catalog_) {
  std::unordered_map<std::string, std::vector<std::string>> pred_columns;
  CollectPredicateColumns(view_def_.tree(), &pred_columns);
  for (const std::string& table : view_def_.tables()) {
    stats_catalog_.RestrictColumns(table, pred_columns[table]);
  }
  BuildPlanSet(options_.exploit_foreign_keys, &main_);
  if (options_.exploit_foreign_keys) {
    // OnUpdate must run without constraint-based reasoning (§6 caveat 1).
    BuildPlanSet(/*use_fks=*/false, &update_);
  }
  view_store_ = std::make_unique<MaterializedView>(view_def_.output_schema());
}

void ViewMaintainer::BuildPlanSet(bool use_fks, PlanSet* out) {
  obs::Span jdnf_span(options_.trace, "ivm.plan.jdnf", "ivm");
  JdnfOptions jdnf_options;
  jdnf_options.exploit_foreign_keys = use_fks;
  out->terms = ComputeJdnf(view_def_.tree(), *catalog_, jdnf_options);
  out->sgraph = std::make_unique<SubsumptionGraph>(out->terms);
  jdnf_span.AddArg("view", view_def_.name());
  jdnf_span.AddArg("terms", static_cast<int64_t>(out->terms.size()));
  jdnf_span.AddArg("use_fks", static_cast<int64_t>(use_fks));
  jdnf_span.Finish();

  for (const std::string& table : view_def_.tables()) {
    obs::Span table_span(options_.trace, "ivm.plan.table", "ivm");
    table_span.AddArg("view", view_def_.name());
    table_span.AddArg("table", table);
    TablePlan plan;
    MaintenanceGraphOptions mg_options;
    mg_options.exploit_foreign_keys = use_fks;
    plan.graph = std::make_unique<MaintenanceGraph>(
        out->terms, *out->sgraph, table, *catalog_, mg_options);
    table_span.AddArg(
        "direct_terms", static_cast<int64_t>(plan.graph->DirectTerms().size()));
    table_span.AddArg("indirect_terms",
                      static_cast<int64_t>(plan.graph->IndirectTerms().size()));
    table_span.AddArg("theorem3_eliminated",
                      static_cast<int64_t>(plan.graph->fk_eliminated()));
    if (plan.graph->DirectTerms().empty()) {
      // Theorem 3 eliminated every directly affected term: updates of
      // this table cannot change the view at all.
      plan.delta_empty = true;
    } else {
      RelExprPtr expr = BuildPrimaryDeltaExpr(view_def_, table);
      if (use_fks) {
        SimplifyResult simplified = SimplifyDeltaTree(
            expr, FkChildrenJoinedOnKey(view_def_, table, *catalog_));
        table_span.AddArg("joins_eliminated",
                          static_cast<int64_t>(simplified.joins_eliminated));
        static obs::Counter& pruned = obs::Registry::Global().GetCounter(
            "ojv.ivm.simplify_joins_eliminated");
        pruned.Add(simplified.joins_eliminated);
        if (simplified.empty) {
          plan.delta_empty = true;
          expr = nullptr;
        } else {
          expr = simplified.expr;
        }
      }
      if (expr != nullptr && options_.use_left_deep) {
        expr = ToLeftDeep(expr);
      }
      plan.delta_expr = expr;
    }
    table_span.AddArg("delta_empty", static_cast<int64_t>(plan.delta_empty));
    if (!plan.delta_empty) {
      plan.secondary = std::make_unique<SecondaryDeltaEngine>(
          view_def_, *catalog_, out->terms, *plan.graph, table, &planner_);
      plan.secondary->set_table_cache(&table_cache_);
      plan.secondary->set_trace(options_.trace);
    }
    out->plans.emplace(table, std::move(plan));
  }
}

void ViewMaintainer::InitializeView() {
  obs::Span span(options_.trace, "ivm.init_view", "ivm");
  span.AddArg("view", view_def_.name());
  Relation contents = EvaluateView(options_.trace);
  span.AddArg("rows", contents.size());
  LoadContents(std::move(*contents.mutable_rows()));
  // Prime statistics at set-up; the first maintenance call should plan,
  // not ANALYZE.
  obs::Span stats_span(options_.trace, "ivm.init_stats", "ivm");
  for (const std::string& table : view_def_.tables()) {
    stats_catalog_.Get(table);
  }
  stats_span.Finish();
}

void ViewMaintainer::RestoreView(const std::vector<Row>& rows) {
  LoadContents(rows);
}

Relation ViewMaintainer::EvaluateView(obs::TraceContext* trace) const {
  Evaluator evaluator(catalog_);
  evaluator.set_trace(trace);
  return evaluator.EvalToRelation(view_def_.WithProjection());
}

void ViewMaintainer::LoadContents(std::vector<Row> rows) {
  view_store_ = std::make_unique<MaterializedView>(view_def_.output_schema());
  for (Row& row : rows) view_store_->Insert(std::move(row));
}

void ViewMaintainer::ApplyPrimaryDelta(const Relation& primary,
                                       bool is_insert) {
  if (is_insert) {
    for (const Row& row : primary.rows()) view_store_->Insert(row);
  } else {
    for (const Row& row : primary.rows()) {
      OJV_CHECK(view_store_->DeleteMatching(row),
                "primary delta row missing from view");
    }
  }
}

int64_t ViewMaintainer::ApplySecondaryDelta(SecondaryDeltaEngine* engine,
                                            const Relation& primary,
                                            const Relation& delta_t,
                                            bool is_insert) {
  return is_insert ? engine->ApplyAfterInsert(options_.secondary_strategy,
                                              primary, delta_t,
                                              view_store_.get())
                   : engine->ApplyAfterDelete(options_.secondary_strategy,
                                              primary, view_store_.get());
}

const MaintenanceGraph& ViewMaintainer::maintenance_graph(
    const std::string& table) const {
  return *main_.For(table).graph;
}

const RelExprPtr& ViewMaintainer::delta_expr(const std::string& table) const {
  return main_.For(table).delta_expr;
}

Relation ViewMaintainer::EvalPrimaryDelta(
    const RelExprPtr& expr, const Relation& delta_t,
    const std::unordered_set<const RelExpr*>* probe_joins) {
  Evaluator evaluator(catalog_);
  evaluator.set_table_cache(&table_cache_);
  evaluator.set_trace(options_.trace);
  evaluator.set_probe_joins(probe_joins);
  // The delta leaf is named after the updated table.
  for (const std::string& table : view_def_.tables()) {
    if (delta_t.schema().HasTable(table)) {
      evaluator.BindDelta(table, &delta_t);
    }
  }
  std::shared_ptr<const Relation> raw_ptr = evaluator.Eval(expr);
  const Relation& raw = *raw_ptr;

  // Align to the view's output schema; tables eliminated by SimplifyTree
  // are null-extended.
  const BoundSchema& out_schema = view_def_.output_schema();
  Relation aligned(out_schema);
  aligned.mutable_rows()->reserve(static_cast<size_t>(raw.size()));
  std::vector<int> source_positions;
  source_positions.reserve(static_cast<size_t>(out_schema.num_columns()));
  for (const BoundColumn& col : out_schema.columns()) {
    source_positions.push_back(raw.schema().Find(col.table, col.column));
  }
  for (const Row& row : raw.rows()) {
    Row out(static_cast<size_t>(out_schema.num_columns()), Value::Null());
    for (size_t i = 0; i < source_positions.size(); ++i) {
      if (source_positions[i] >= 0) {
        out[i] = row[static_cast<size_t>(source_positions[i])];
      }
    }
    aligned.Add(std::move(out));
  }
  return aligned;
}

bool ViewMaintainer::DeltaIsEmpty(const std::string& table) const {
  return main_.For(table).delta_empty;
}

Relation ViewMaintainer::ComputePrimaryDeltaRelation(const std::string& table,
                                                     const Relation& delta_t) {
  const TablePlan& plan = main_.For(table);
  OJV_CHECK(!plan.delta_empty, "delta is provably empty");
  return EvalPrimaryDelta(plan.delta_expr, delta_t, /*probe_joins=*/nullptr);
}

SecondaryDeltaEngine* ViewMaintainer::secondary_engine(
    const std::string& table) {
  auto it = main_.plans.find(table);
  OJV_CHECK(it != main_.plans.end(), "table not referenced by view");
  return it->second.secondary.get();
}

void ViewMaintainer::set_trace(obs::TraceContext* trace) {
  options_.trace = trace;
  for (PlanSet* set : {&main_, &update_}) {
    for (auto& [table, plan] : set->plans) {
      if (plan.secondary != nullptr) plan.secondary->set_trace(trace);
    }
  }
}

const opt::PlanCacheEntry* ViewMaintainer::plan_entry(const std::string& table,
                                                      bool is_insert,
                                                      PlanPolicy policy) const {
  // Mirror SetFor: without FK exploitation there is no separate
  // constraint-free plan set, so both policies share the main key.
  const bool cf = policy == PlanPolicy::kConstraintFree &&
                  options_.exploit_foreign_keys;
  return plan_cache_.Find(opt::PlanCache::Key(table, is_insert, cf));
}

void ViewMaintainer::InvalidatePlans() {
  plan_cache_.Clear();
  stats_catalog_.InvalidateAll();
}

MaintenanceStats& MaintenanceStats::Merge(const MaintenanceStats& other) {
  delta_rows += other.delta_rows;
  primary_rows += other.primary_rows;
  secondary_rows += other.secondary_rows;
  direct_terms = other.direct_terms;
  indirect_terms = other.indirect_terms;
  fk_fast_path = fk_fast_path && other.fk_fast_path;
  primary_micros += other.primary_micros;
  apply_micros += other.apply_micros;
  secondary_micros += other.secondary_micros;
  total_micros += other.total_micros;
  return *this;
}

MaintenanceStats ViewMaintainer::OnInsert(const std::string& table,
                                          const std::vector<Row>& rows,
                                          PlanPolicy policy) {
  stats_catalog_.OnInsert(table, rows);
  return Maintain(SetFor(policy).For(table), table, rows, /*is_insert=*/true,
                  policy);
}

MaintenanceStats ViewMaintainer::OnDelete(const std::string& table,
                                          const std::vector<Row>& rows,
                                          PlanPolicy policy) {
  stats_catalog_.OnDelete(table, rows);
  return Maintain(SetFor(policy).For(table), table, rows, /*is_insert=*/false,
                  policy);
}

MaintenanceStats ViewMaintainer::OnUpdate(const std::string& table,
                                          const std::vector<Row>& old_rows,
                                          const std::vector<Row>& new_rows) {
  stats_catalog_.OnUpdate(table, old_rows, new_rows);
  const PlanSet& set = SetFor(PlanPolicy::kConstraintFree);
  MaintenanceStats stats =
      Maintain(set.For(table), table, old_rows, /*is_insert=*/false,
               PlanPolicy::kConstraintFree);
  stats.fk_fast_path = false;
  stats.Merge(Maintain(set.For(table), table, new_rows, /*is_insert=*/true,
                       PlanPolicy::kConstraintFree));
  return stats;
}

MaintenanceStats ViewMaintainer::OnConsolidatedBatch(
    Table* base, const std::string& table, const std::vector<Row>& net_deletes,
    const std::vector<Row>& net_inserts, PlanPolicy policy) {
  OJV_CHECK(base != nullptr && base->name() == table,
            "consolidated batch must target its own base table");
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

MaintenanceStats ViewMaintainer::Maintain(const TablePlan& plan,
                                          const std::string& table,
                                          const std::vector<Row>& rows,
                                          bool is_insert, PlanPolicy policy) {
  MaintenanceStats stats;
  stats.delta_rows = static_cast<int64_t>(rows.size());
  if (plan.graph != nullptr) {
    stats.direct_terms = static_cast<int>(plan.graph->DirectTerms().size());
    stats.indirect_terms =
        static_cast<int>(plan.graph->IndirectTerms().size());
  }
  // The root span's duration is stamped from stats.total_micros below —
  // the trace and the legacy numbers are one measurement, never two.
  obs::Span root_span(options_.trace, "ivm.maintain", "ivm");
  root_span.AddArg("view", view_def_.name());
  root_span.AddArg("table", table);
  root_span.AddArg("op", std::string(is_insert ? "insert" : "delete"));
  root_span.AddArg(
      "policy",
      std::string(policy == PlanPolicy::kConstraintFree ? "cf" : "main"));
  root_span.AddArg("delta_rows", stats.delta_rows);
  root_span.AddArg("direct_terms", stats.direct_terms);
  root_span.AddArg("indirect_terms", stats.indirect_terms);
  auto total_start = std::chrono::steady_clock::now();

  if (plan.delta_empty || rows.empty()) {
    stats.fk_fast_path = plan.delta_empty;
    stats.total_micros = MicrosSince(total_start);
    root_span.AddArg("skipped",
                     std::string(plan.delta_empty ? "delta_empty" : "no_rows"));
    root_span.FinishWithDuration(stats.total_micros);
    return stats;
  }

  // Cost-based plan selection: reuse the cached order unless |Δ| moved
  // far from what it was costed for.
  RelExprPtr exec_expr = plan.delta_expr;
  const std::unordered_set<const RelExpr*>* probe_joins = nullptr;
  opt::PlanCacheEntry* cache_entry = nullptr;
  if (ContainsJoin(plan.delta_expr)) {
    const std::string key = opt::PlanCache::Key(
        table, is_insert,
        policy == PlanPolicy::kConstraintFree && options_.exploit_foreign_keys);
    cache_entry = plan_cache_.Find(key);
    const double drows = static_cast<double>(rows.size());
    const bool replan_size =
        cache_entry != nullptr &&
        std::abs(std::log2(std::max(drows, 1.0)) -
                 std::log2(cache_entry->planned_delta_rows)) >=
            opt::kReplanDeltaLog2;
    if (cache_entry == nullptr || replan_size) {
      const bool had = cache_entry != nullptr;
      cache_entry = plan_cache_.Put(
          key, planner_.Plan(plan.delta_expr, table, drows), drows);
      cache_entry->source = had ? "replan" : "planned";
      if (had) ++cache_entry->replans;
    } else {
      cache_entry->source = "cache";
      ++cache_entry->hits;
    }
    exec_expr = cache_entry->plan.expr;
    probe_joins = &cache_entry->plan.probe_joins;
    root_span.AddArg("plan_source", cache_entry->source);
    root_span.AddArg("join_order", cache_entry->plan.order);
    root_span.AddArg("reordered",
                     static_cast<int64_t>(cache_entry->plan.reordered));
    root_span.AddArg("probe_joins",
                     static_cast<int64_t>(probe_joins->size()));
  }

  // ΔT as a tagged relation.
  Relation delta_t(Evaluator::SchemaFor(*catalog_->GetTable(table)));
  for (const Row& row : rows) delta_t.Add(row);

  // Step 1: compute the primary delta.
  obs::Span primary_span(options_.trace, "ivm.primary_delta", "ivm");
  auto primary_start = std::chrono::steady_clock::now();
  Relation primary = EvalPrimaryDelta(exec_expr, delta_t, probe_joins);
  stats.primary_rows = primary.size();
  stats.fk_fast_path =
      plan.delta_expr->kind() == RelKind::kDeltaScan ||
      (plan.delta_expr->kind() == RelKind::kSelect &&
       plan.delta_expr->input()->kind() == RelKind::kDeltaScan);
  stats.primary_micros = MicrosSince(primary_start);
  primary_span.AddArg("rows_in", stats.delta_rows);
  primary_span.AddArg("rows_out", stats.primary_rows);
  primary_span.AddArg("fk_fast_path", static_cast<int64_t>(stats.fk_fast_path));
  primary_span.FinishWithDuration(stats.primary_micros);

  // Step 2: apply it.
  obs::Span apply_span(options_.trace, "ivm.apply", "ivm");
  auto apply_start = std::chrono::steady_clock::now();
  ApplyPrimaryDelta(primary, is_insert);
  stats.apply_micros = MicrosSince(apply_start);
  apply_span.AddArg("rows", stats.primary_rows);
  apply_span.FinishWithDuration(stats.apply_micros);

  // Step 3: secondary delta for indirectly affected terms.
  if (plan.secondary != nullptr && stats.indirect_terms > 0) {
    obs::Span secondary_span(options_.trace, "ivm.secondary_delta", "ivm");
    auto secondary_start = std::chrono::steady_clock::now();
    stats.secondary_rows = ApplySecondaryDelta(plan.secondary.get(), primary,
                                               delta_t, is_insert);
    stats.secondary_micros = MicrosSince(secondary_start);
    secondary_span.AddArg("rows", stats.secondary_rows);
    secondary_span.FinishWithDuration(stats.secondary_micros);
  } else if (options_.trace != nullptr) {
    // Record the skip and why — "secondary delta not needed" is exactly
    // the FK effect the paper's §6 argues for, so make it visible.
    options_.trace->RecordComplete(
        "ivm.secondary_delta.skipped", "ivm", options_.trace->NowMicros(), 0,
        {{"indirect_terms", stats.indirect_terms}},
        {{"reason", stats.indirect_terms == 0 ? "no_indirect_terms"
                                              : "no_engine"}});
  }
  stats.total_micros = MicrosSince(total_start);
  root_span.AddArg("rows_out", stats.primary_rows + stats.secondary_rows);
  root_span.AddArg("fk_fast_path", static_cast<int64_t>(stats.fk_fast_path));
  root_span.FinishWithDuration(stats.total_micros);
  return stats;
}

std::vector<Row> ApplyBaseInsert(Table* table, const std::vector<Row>& rows) {
  std::vector<Row> inserted;
  inserted.reserve(rows.size());
  for (const Row& row : rows) {
    if (table->Insert(row)) inserted.push_back(row);
  }
  return inserted;
}

std::vector<Row> ApplyBaseDelete(Table* table, const std::vector<Row>& keys) {
  std::vector<Row> deleted;
  deleted.reserve(keys.size());
  for (const Row& key : keys) {
    Row full;
    if (table->DeleteByKey(key, &full)) deleted.push_back(std::move(full));
  }
  return deleted;
}

void ApplyBaseUpdate(Table* table, const std::vector<Row>& keys,
                     const std::vector<Row>& new_rows,
                     std::vector<Row>* old_rows) {
  OJV_CHECK(keys.size() == new_rows.size(), "update arity mismatch");
  *old_rows = ApplyBaseDelete(table, keys);
  OJV_CHECK(old_rows->size() == keys.size(), "update of missing row");
  for (const Row& row : new_rows) {
    OJV_CHECK(table->Insert(row), "update collides with existing key");
  }
}

}  // namespace ojv

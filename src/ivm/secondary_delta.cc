#include "ivm/secondary_delta.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "exec/evaluator.h"
#include "obs/metrics.h"

namespace ojv {
namespace {

size_t HashPositions(const Row& row, const std::vector<int>& positions) {
  size_t h = 0xcbf29ce484222325ULL;
  for (int p : positions) {
    h ^= row[static_cast<size_t>(p)].Hash();
    h *= 0x100000001b3ULL;
  }
  return h;
}

// nn(t): the table's first key column (non-nullable in the base table) is
// non-null in the row.
ScalarExprPtr NonNullTest(const BoundSchema& schema, const std::string& table) {
  const std::vector<int>& keys = schema.KeyPositions(table);
  OJV_CHECK(!keys.empty(), "null test requires the table's key in the view");
  const BoundColumn& col = schema.column(keys[0]);
  return ScalarExpr::Not(
      ScalarExpr::IsNull(ScalarExpr::Column(col.table, col.column)));
}

ScalarExprPtr NullTest(const BoundSchema& schema, const std::string& table) {
  const std::vector<int>& keys = schema.KeyPositions(table);
  OJV_CHECK(!keys.empty(), "null test requires the table's key in the view");
  const BoundColumn& col = schema.column(keys[0]);
  return ScalarExpr::IsNull(ScalarExpr::Column(col.table, col.column));
}

// Moves the conjuncts whose every referenced table satisfies `bound` out
// of `conjuncts` and returns them.
template <typename Bound>
std::vector<ScalarExprPtr> TakeBound(std::vector<ScalarExprPtr>* conjuncts,
                                     Bound bound) {
  std::vector<ScalarExprPtr> taken, kept;
  for (ScalarExprPtr& c : *conjuncts) {
    std::set<std::string> refs = c->ReferencedTables();
    (std::all_of(refs.begin(), refs.end(), bound) ? taken : kept)
        .push_back(std::move(c));
  }
  *conjuncts = std::move(kept);
  return taken;
}

}  // namespace

SecondaryDeltaEngine::SecondaryDeltaEngine(const ViewDef& view_def,
                                           const Catalog& catalog,
                                           const std::vector<Term>& terms,
                                           const MaintenanceGraph& graph,
                                           const std::string& updated_table,
                                           opt::DeltaPlanner* planner)
    : view_def_(view_def),
      catalog_(catalog),
      terms_(terms),
      graph_(graph),
      updated_table_(updated_table),
      planner_(planner) {
  const BoundSchema& schema = view_def_.output_schema();
  // A table is null-extended iff its first key column (non-nullable in
  // the base table) is NULL, so one probe position per table suffices.
  auto first_key_of = [&schema](const std::string& table) {
    const std::vector<int>& keys = schema.KeyPositions(table);
    OJV_CHECK(!keys.empty(), "null test requires the table's key in the view");
    return keys[0];
  };
  for (int i : graph.IndirectTerms()) {
    TermPlan plan;
    plan.term_index = i;
    const Term& term = terms_[static_cast<size_t>(i)];
    for (const std::string& t : term.source) plan.ti_tables.push_back(t);
    for (const std::string& t : view_def_.tables()) {
      if (term.source.count(t) == 0) plan.null_tables.push_back(t);
    }
    plan.direct_parents = graph.DirectParents(i);
    OJV_CHECK(!plan.direct_parents.empty(),
              "indirect term must have a directly affected parent");
    for (int parent : graph.IndirectParents(i)) {
      for (const std::string& t :
           terms_[static_cast<size_t>(parent)].source) {
        if (term.source.count(t) == 0) plan.indirect_parent_extra.insert(t);
      }
    }
    // Resolve every schema position the per-row probes need, once.
    for (const std::string& t : plan.ti_tables) {
      plan.ti_null_probes.push_back(first_key_of(t));
      for (int p : schema.KeyPositions(t)) plan.ti_key_positions.push_back(p);
    }
    for (const std::string& t : plan.null_tables) {
      plan.null_table_probes.push_back(first_key_of(t));
    }
    for (int parent : plan.direct_parents) {
      std::vector<int> probes;
      for (const std::string& t :
           terms_[static_cast<size_t>(parent)].source) {
        probes.push_back(first_key_of(t));
      }
      plan.parent_nn_probes.push_back(std::move(probes));
    }
    plan.first_ti_keys = schema.KeyPositions(plan.ti_tables[0]);
    plans_.push_back(std::move(plan));
  }
}

bool SecondaryDeltaEngine::SatisfiesPi(const Row& delta_row,
                                       const TermPlan& plan) const {
  // Pi = ∨ over directly affected parents Ek of nn(Tk).
  for (const std::vector<int>& probes : plan.parent_nn_probes) {
    bool all_non_null = true;
    for (int p : probes) {
      if (delta_row[static_cast<size_t>(p)].is_null()) {
        all_non_null = false;
        break;
      }
    }
    if (all_non_null) return true;
  }
  return false;
}

bool SecondaryDeltaEngine::IsOrphanOf(const Row& view_row,
                                      const TermPlan& plan) const {
  for (int p : plan.ti_null_probes) {
    if (view_row[static_cast<size_t>(p)].is_null()) return false;
  }
  for (int p : plan.null_table_probes) {
    if (!view_row[static_cast<size_t>(p)].is_null()) return false;
  }
  return true;
}

bool SecondaryDeltaEngine::TiKeysMatch(const Row& a, const Row& b,
                                       const TermPlan& plan) const {
  for (int p : plan.ti_key_positions) {
    const Value& va = a[static_cast<size_t>(p)];
    const Value& vb = b[static_cast<size_t>(p)];
    if (va.is_null() || vb.is_null() || va != vb) return false;
  }
  return true;
}

std::vector<int64_t> SecondaryDeltaEngine::LookupTi(
    const MaterializedView& view, const Row& probe,
    const TermPlan& plan) const {
  std::vector<int64_t> hits =
      view.LookupByTableKey(plan.ti_tables[0], probe, plan.first_ti_keys);
  std::vector<int64_t> out;
  for (int64_t id : hits) {
    if (TiKeysMatch(view.row(id), probe, plan)) out.push_back(id);
  }
  return out;
}


std::vector<Row> SecondaryDeltaEngine::CandidatesFromBaseTables(
    const Relation& primary_delta, const Relation& delta_t, bool is_insert) {
  std::vector<Row> out;
  for (const TermPlan& plan : plans_) {
    std::vector<Row> candidates =
        ComputeFromBaseTables(plan, primary_delta, delta_t, is_insert);
    out.insert(out.end(), std::make_move_iterator(candidates.begin()),
               std::make_move_iterator(candidates.end()));
  }
  return out;
}

const char* SecondaryStrategyName(SecondaryStrategy strategy) {
  switch (strategy) {
    case SecondaryStrategy::kFromView:
      return "from_view";
    case SecondaryStrategy::kFromBaseTables:
      return "from_base_tables";
  }
  return "?";
}

namespace {

// One strategy record per apply: which plan ran, for the trace and the
// global counters.
void RecordStrategy(obs::TraceContext* trace, SecondaryStrategy strategy,
                    int64_t primary_rows, size_t num_terms) {
  static obs::Counter& from_view =
      obs::Registry::Global().GetCounter("ojv.secondary.from_view");
  static obs::Counter& from_base =
      obs::Registry::Global().GetCounter("ojv.secondary.from_base");
  (strategy == SecondaryStrategy::kFromView ? from_view : from_base).Add(1);
  if (trace != nullptr) {
    trace->RecordComplete(
        "ivm.secondary.strategy", "ivm", trace->NowMicros(), 0,
        {{"primary_rows", primary_rows},
         {"indirect_terms", static_cast<int64_t>(num_terms)}},
        {{"strategy", SecondaryStrategyName(strategy)}});
  }
}

}  // namespace

int64_t SecondaryDeltaEngine::ApplyAfterInsert(SecondaryStrategy strategy,
                                               const Relation& primary_delta,
                                               const Relation& delta_t,
                                               MaterializedView* view) {
  RecordStrategy(trace_, strategy, primary_delta.size(), plans_.size());
  int64_t affected = 0;
  for (const TermPlan& plan : plans_) {
    if (strategy == SecondaryStrategy::kFromView) {
      affected += DeleteOrphansFromView(plan, primary_delta, view);
    } else {
      std::vector<Row> candidates = ComputeFromBaseTables(
          plan, primary_delta, delta_t, /*is_insert=*/true);
      affected += DeleteCandidateOrphans(candidates, plan, view);
    }
  }
  return affected;
}

int64_t SecondaryDeltaEngine::ApplyAfterDelete(SecondaryStrategy strategy,
                                               const Relation& primary_delta,
                                               MaterializedView* view) {
  RecordStrategy(trace_, strategy, primary_delta.size(), plans_.size());
  int64_t affected = 0;
  for (const TermPlan& plan : plans_) {
    if (strategy == SecondaryStrategy::kFromView) {
      affected += InsertOrphansFromView(plan, primary_delta, view);
    } else {
      Relation empty_delta;
      std::vector<Row> candidates = ComputeFromBaseTables(
          plan, primary_delta, empty_delta, /*is_insert=*/false);
      affected += InsertCandidateOrphans(candidates, plan, view);
    }
  }
  return affected;
}

int64_t SecondaryDeltaEngine::DeleteOrphansFromView(
    const TermPlan& plan, const Relation& primary_delta,
    MaterializedView* view) {
  // ΔDi = σ_{nn(Ti) ∧ n(Si)}(V + ΔV^D) ⋉_{eq(Ti)} σ_{Pi} ΔV^D,
  // driven from the (small) delta side through the view's Ti-key index.
  std::unordered_set<int64_t> to_delete;
  for (const Row& delta_row : primary_delta.rows()) {
    if (!SatisfiesPi(delta_row, plan)) continue;
    for (int64_t id : LookupTi(*view, delta_row, plan)) {
      if (IsOrphanOf(view->row(id), plan)) to_delete.insert(id);
    }
  }
  for (int64_t id : to_delete) view->DeleteById(id);
  return static_cast<int64_t>(to_delete.size());
}

int64_t SecondaryDeltaEngine::InsertOrphansFromView(
    const TermPlan& plan, const Relation& primary_delta,
    MaterializedView* view) {
  // ΔDi = (δ π_{Ti.*} σ_{Pi} ΔV^D) ▷_{eq(Ti)} (V − ΔV^D):
  // project deleted parent tuples onto Ti, dedup, then keep only those
  // with no remaining view row sharing the Ti key.
  const BoundSchema& schema = view_def_.output_schema();
  std::vector<int> ti_positions;
  for (int i = 0; i < schema.num_columns(); ++i) {
    bool in_ti = false;
    for (const std::string& t : plan.ti_tables) {
      if (schema.column(i).table == t) in_ti = true;
    }
    if (in_ti) ti_positions.push_back(i);
  }

  std::vector<Row> candidates;
  std::unordered_multimap<size_t, size_t> seen;
  for (const Row& delta_row : primary_delta.rows()) {
    if (!SatisfiesPi(delta_row, plan)) continue;
    Row candidate(static_cast<size_t>(schema.num_columns()), Value::Null());
    for (int p : ti_positions) {
      candidate[static_cast<size_t>(p)] = delta_row[static_cast<size_t>(p)];
    }
    size_t h = HashPositions(candidate, ti_positions);
    bool duplicate = false;
    auto range = seen.equal_range(h);
    for (auto it = range.first; it != range.second; ++it) {
      if (candidates[it->second] == candidate) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      seen.emplace(h, candidates.size());
      candidates.push_back(std::move(candidate));
    }
  }

  int64_t inserted = 0;
  for (Row& candidate : candidates) {
    if (LookupTi(*view, candidate, plan).empty()) {
      view->Insert(std::move(candidate));
      ++inserted;
    }
  }
  return inserted;
}

std::vector<Row> SecondaryDeltaEngine::ComputeFromBaseTables(
    const TermPlan& plan, const Relation& primary_delta,
    const Relation& delta_t, bool is_insert) {
  const BoundSchema& schema = view_def_.output_schema();
  const Term& term = terms_[static_cast<size_t>(plan.term_index)];

  Evaluator evaluator(&catalog_);
  evaluator.set_table_cache(cache_);
  evaluator.set_trace(trace_);
  evaluator.BindDelta("#primary", &primary_delta);

  // For an insertion, the paper's expressions need the *pre-insert*
  // state T± ▷ eq(T) ΔT. Rather than materializing it, the ΔT keys are
  // re-tagged under a pseudo table so the current table can be
  // anti-joined against them (a table cannot join itself under one tag).
  Relation delta_keys;
  ScalarExprPtr delta_key_pred;
  if (is_insert) {
    const Table* base = catalog_.GetTable(updated_table_);
    BoundSchema key_schema;
    std::vector<ScalarExprPtr> key_eq;
    for (size_t k = 0; k < base->key_columns().size(); ++k) {
      const std::string& col = base->key_columns()[k];
      key_schema.AddColumn(BoundColumn{
          "#dt", col,
          base->schema().column(base->key_positions()[k]).type, -1});
      key_eq.push_back(ScalarExpr::Compare(
          CompareOp::kEq, ScalarExpr::Column(updated_table_, col),
          ScalarExpr::Column("#dt", col)));
    }
    delta_keys = Relation(key_schema);
    for (const Row& row : delta_t.rows()) delta_keys.Add(base->KeyOf(row));
    delta_key_pred = MakeConjunction(key_eq);
    evaluator.BindDelta("#dtkeys", &delta_keys);
  }

  // Qi = nn(Ti) ∧ n(extra tables of indirectly affected parents).
  std::vector<ScalarExprPtr> qi;
  for (const std::string& t : plan.ti_tables) {
    qi.push_back(NonNullTest(schema, t));
  }
  for (const std::string& t : plan.indirect_parent_extra) {
    qi.push_back(NullTest(schema, t));
  }

  // Candidates: δ π_{Ti.*} σ_{Qi} ΔV^D — evaluated first so the parent
  // fragments below can be pruned against them.
  std::vector<ColumnRef> ti_columns;
  for (int i = 0; i < schema.num_columns(); ++i) {
    const BoundColumn& col = schema.column(i);
    if (term.source.count(col.table) > 0) {
      ti_columns.push_back(ColumnRef{col.table, col.column});
    }
  }
  Relation candidates = evaluator.EvalToRelation(RelExpr::Dedup(
      RelExpr::Project(RelExpr::Select(RelExpr::DeltaScan("#primary"),
                                       MakeConjunction(qi)),
                       ti_columns)));
  if (candidates.empty()) return {};

  // The anti-join predicates below may reference Si columns the view
  // does not output (join columns that appear only inside a parent
  // predicate, like O.o_custkey in C ⟕ O when the view projects it
  // away). The view does carry every table's full unique key (§2), so
  // recover the missing values by key lookup against the base tables.
  {
    std::vector<ColumnRef> referenced;
    for (int parent_index : plan.direct_parents) {
      for (const ScalarExprPtr& c :
           terms_[static_cast<size_t>(parent_index)].predicates) {
        c->CollectColumns(&referenced);
      }
    }
    std::set<ColumnRef> seen;
    std::vector<ColumnRef> missing;
    for (const ColumnRef& ref : referenced) {
      if (term.source.count(ref.table) == 0) continue;
      if (candidates.schema().Find(ref) >= 0) continue;
      if (seen.insert(ref).second) missing.push_back(ref);
    }
    if (!missing.empty()) {
      candidates = EnrichCandidates(candidates, missing);
      if (candidates.empty()) return {};
    }
  }
  evaluator.BindDelta("#cands", &candidates);

  // One anti-semijoin per directly affected parent. The anti-join only
  // cares about parent-fragment rows that can match *some* candidate, so
  // each fragment input that the anti-join predicate touches is first
  // semijoined against the candidates — turning "join the base tables"
  // into "probe the base tables against a small hash" (the paper's
  // future-work remark about reusing partial results).
  RelExprPtr expr = RelExpr::DeltaScan("#cands");
  for (int parent_index : plan.direct_parents) {
    const Term& parent = terms_[static_cast<size_t>(parent_index)];
    std::set<std::string> rk;
    for (const std::string& t : parent.source) {
      if (term.source.count(t) == 0 && t != updated_table_) rk.insert(t);
    }
    // Classify the parent's conjuncts (paper §5.3 notation).
    std::vector<ScalarExprPtr> q_rk, q_t, q_rk_t, q_ip;
    for (const ScalarExprPtr& c : parent.predicates) {
      std::set<std::string> refs = c->ReferencedTables();
      bool in_si = false, in_rk = false, in_t = false;
      for (const std::string& r : refs) {
        if (term.source.count(r) > 0) in_si = true;
        if (rk.count(r) > 0) in_rk = true;
        if (r == updated_table_) in_t = true;
      }
      if (in_si && (in_rk || in_t)) {
        q_ip.push_back(c);
      } else if (in_rk && in_t) {
        q_rk_t.push_back(c);
      } else if (in_rk) {
        q_rk.push_back(c);
      } else if (in_t && refs.size() == 1) {
        q_t.push_back(c);
      }
      // Conjuncts entirely within Si already hold for the candidates.
    }
    OJV_CHECK(!q_ip.empty(),
              "parent term must connect to the candidate's tables");

    // Split the anti-join conjuncts by which fragment side they prune.
    std::vector<ScalarExprPtr> q_ip_t, q_ip_rk;
    for (const ScalarExprPtr& c : q_ip) {
      bool touches_t = c->ReferencedTables().count(updated_table_) > 0;
      (touches_t ? q_ip_t : q_ip_rk).push_back(c);
    }

    RelExprPtr t_side = RelExpr::Scan(updated_table_);
    if (!q_t.empty()) t_side = RelExpr::Select(t_side, MakeConjunction(q_t));
    if (!q_ip_t.empty()) {
      t_side = RelExpr::Join(JoinKind::kLeftSemi, t_side,
                             RelExpr::DeltaScan("#cands"),
                             MakeConjunction(q_ip_t));
    }
    if (is_insert) {
      // Restrict to the pre-insert rows: drop the ones in ΔT.
      t_side = RelExpr::Join(JoinKind::kLeftAnti, t_side,
                             RelExpr::DeltaScan("#dtkeys"), delta_key_pred);
    }

    // Join the residual parent tables onto the T side one at a time,
    // smallest first among those a conjunct links to the tables already
    // joined; a product only when none is linked. The rk tables may share
    // no conjunct among themselves (V3's {lineitem, customer} both join
    // through orders), so joining them before T would multiply them. A
    // table's own conjuncts filter its scan, and the anti-join conjuncts
    // bound once it joins prune it (or the join) against the candidates.
    RelExprPtr parent_expr = t_side;
    std::set<std::string> joined = {updated_table_};
    std::vector<ScalarExprPtr> links = q_rk;
    links.insert(links.end(), q_rk_t.begin(), q_rk_t.end());
    std::vector<std::string> pending = planner_->OrderTablesByRows(rk);
    auto linked = [&](const std::string& table) {
      return std::any_of(links.begin(), links.end(),
                         [&](const ScalarExprPtr& c) {
                           std::set<std::string> refs = c->ReferencedTables();
                           if (refs.size() < 2 || refs.erase(table) == 0) {
                             return false;
                           }
                           return std::includes(joined.begin(), joined.end(),
                                                refs.begin(), refs.end());
                         });
    };
    while (!pending.empty()) {
      auto next = std::find_if(pending.begin(), pending.end(), linked);
      if (next == pending.end()) next = pending.begin();
      const std::string table = *next;
      pending.erase(next);
      joined.insert(table);
      auto of_table = [&](const std::string& t) { return t == table; };
      auto of_joined = [&](const std::string& t) {
        return joined.count(t) > 0;
      };
      auto of_si = [&](const std::string& t) {
        return term.source.count(t) > 0;
      };
      std::vector<ScalarExprPtr> filter = TakeBound(&links, of_table);
      std::vector<ScalarExprPtr> join = TakeBound(&links, of_joined);
      std::vector<ScalarExprPtr> scan_prune =
          TakeBound(&q_ip_rk, [&](const std::string& t) {
            return of_table(t) || of_si(t);
          });
      std::vector<ScalarExprPtr> join_prune =
          TakeBound(&q_ip_rk, [&](const std::string& t) {
            return of_joined(t) || of_si(t);
          });

      RelExprPtr right = RelExpr::Scan(table);
      if (!filter.empty()) {
        right = RelExpr::Select(right, MakeConjunction(filter));
      }
      if (!scan_prune.empty()) {
        right = RelExpr::Join(JoinKind::kLeftSemi, right,
                              RelExpr::DeltaScan("#cands"),
                              MakeConjunction(scan_prune));
      }
      parent_expr = RelExpr::Join(JoinKind::kInner, parent_expr, right,
                                  join.empty()
                                      ? ScalarExpr::Literal(Value::Int64(1))
                                      : MakeConjunction(join));
      if (!join_prune.empty()) {
        parent_expr = RelExpr::Join(JoinKind::kLeftSemi, parent_expr,
                                    RelExpr::DeltaScan("#cands"),
                                    MakeConjunction(join_prune));
      }
    }
    expr = RelExpr::Join(JoinKind::kLeftAnti, expr, parent_expr,
                         MakeConjunction(q_ip));
  }

  Relation result = evaluator.EvalToRelation(expr);

  // Null-extend candidates to the full view schema. Enriched columns
  // (predicate-only, not part of the view output) are dropped here.
  std::vector<Row> out;
  out.reserve(static_cast<size_t>(result.size()));
  std::vector<int> target_positions;
  for (const BoundColumn& col : result.schema().columns()) {
    target_positions.push_back(schema.Find(col.table, col.column));
  }
  for (const Row& row : result.rows()) {
    Row candidate(static_cast<size_t>(schema.num_columns()), Value::Null());
    for (size_t i = 0; i < row.size(); ++i) {
      if (target_positions[i] < 0) continue;
      candidate[static_cast<size_t>(target_positions[i])] = row[i];
    }
    out.push_back(std::move(candidate));
  }
  return out;
}

Relation SecondaryDeltaEngine::EnrichCandidates(
    const Relation& candidates, const std::vector<ColumnRef>& missing) const {
  // Group the missing columns by source table and precompute, per table,
  // where its key sits in the candidate schema and where the wanted
  // values sit in the base schema.
  struct TableLookup {
    const Table* base;
    std::vector<int> key_in_cands;   // candidate positions of the key
    std::vector<int> value_in_base;  // base positions of the missing cols
  };
  std::map<std::string, std::vector<ColumnRef>> by_table;
  for (const ColumnRef& ref : missing) by_table[ref.table].push_back(ref);

  BoundSchema enriched_schema = candidates.schema();
  std::vector<TableLookup> lookups;
  for (const auto& [table, refs] : by_table) {
    const Table* base = catalog_.GetTable(table);
    OJV_CHECK(base != nullptr, "candidate enrichment needs the base table");
    TableLookup lookup{base, {}, {}};
    for (const std::string& key_col : base->key_columns()) {
      int pos = candidates.schema().Find(table, key_col);
      OJV_CHECK(pos >= 0, "candidate enrichment requires the table's key");
      lookup.key_in_cands.push_back(pos);
    }
    for (const ColumnRef& ref : refs) {
      int pos = base->schema().IndexOf(ref.column);
      lookup.value_in_base.push_back(pos);
      enriched_schema.AddColumn(BoundColumn{
          ref.table, ref.column, base->schema().column(pos).type, -1});
    }
    lookups.push_back(std::move(lookup));
  }

  Relation enriched(std::move(enriched_schema));
  for (const Row& row : candidates.rows()) {
    Row extended = row;
    bool alive = true;
    for (const TableLookup& lookup : lookups) {
      Row key;
      key.reserve(lookup.key_in_cands.size());
      bool null_extended = false;
      for (int pos : lookup.key_in_cands) {
        if (row[static_cast<size_t>(pos)].is_null()) null_extended = true;
        key.push_back(row[static_cast<size_t>(pos)]);
      }
      if (null_extended) {
        // The candidate is null on this table; the missing columns are
        // genuinely NULL for it.
        for (size_t i = 0; i < lookup.value_in_base.size(); ++i) {
          extended.push_back(Value::Null());
        }
        continue;
      }
      const Row* base_row = lookup.base->FindByKey(key);
      if (base_row == nullptr) {
        alive = false;
        break;
      }
      for (int pos : lookup.value_in_base) {
        extended.push_back((*base_row)[static_cast<size_t>(pos)]);
      }
    }
    if (alive) enriched.Add(std::move(extended));
  }
  return enriched;
}

int64_t SecondaryDeltaEngine::DeleteCandidateOrphans(
    const std::vector<Row>& candidates, const TermPlan& plan,
    MaterializedView* view) {
  std::unordered_set<int64_t> to_delete;
  for (const Row& candidate : candidates) {
    for (int64_t id : LookupTi(*view, candidate, plan)) {
      if (IsOrphanOf(view->row(id), plan)) to_delete.insert(id);
    }
  }
  for (int64_t id : to_delete) view->DeleteById(id);
  return static_cast<int64_t>(to_delete.size());
}

int64_t SecondaryDeltaEngine::InsertCandidateOrphans(
    const std::vector<Row>& candidates, const TermPlan& plan,
    MaterializedView* view) {
  int64_t inserted = 0;
  for (const Row& candidate : candidates) {
    if (LookupTi(*view, candidate, plan).empty()) {
      view->Insert(candidate);
      ++inserted;
    }
  }
  return inserted;
}

}  // namespace ojv

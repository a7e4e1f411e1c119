#include "baseline/griffin_kumar.h"

#include <chrono>

#include "common/check.h"
#include "exec/bound_scalar.h"
#include "exec/evaluator.h"

namespace ojv {
namespace {

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Null-extends `rows` (schema `from`) to the combined schema `to`.
Relation NullExtend(const Relation& input, const BoundSchema& to) {
  Relation out(to);
  std::vector<int> positions;
  for (const BoundColumn& col : input.schema().columns()) {
    positions.push_back(to.Find(col.table, col.column));
  }
  for (const Row& row : input.rows()) {
    Row padded(static_cast<size_t>(to.num_columns()), Value::Null());
    for (size_t i = 0; i < row.size(); ++i) {
      padded[static_cast<size_t>(positions[i])] = row[i];
    }
    out.Add(std::move(padded));
  }
  return out;
}

Relation Concat(Relation a, const Relation& b) {
  return Evaluator::OuterUnionOf(a, b);
}

}  // namespace

GriffinKumarMaintainer::GriffinKumarMaintainer(const Catalog* catalog,
                                               ViewDef view)
    : catalog_(catalog), view_def_(std::move(view)) {
  view_store_ = std::make_unique<MaterializedView>(view_def_.output_schema());
}

void GriffinKumarMaintainer::InitializeView() {
  view_store_ = std::make_unique<MaterializedView>(view_def_.output_schema());
  Evaluator evaluator(catalog_);
  Relation contents = evaluator.EvalToRelation(view_def_.WithProjection());
  for (Row& row : *contents.mutable_rows()) view_store_->Insert(std::move(row));
}

MaintenanceStats GriffinKumarMaintainer::OnInsert(const std::string& table,
                                                  const std::vector<Row>& rows) {
  return Maintain(table, rows, /*is_insert=*/true);
}

MaintenanceStats GriffinKumarMaintainer::OnDelete(const std::string& table,
                                                  const std::vector<Row>& rows) {
  return Maintain(table, rows, /*is_insert=*/false);
}

MaintenanceStats GriffinKumarMaintainer::Maintain(const std::string& table,
                                                  const std::vector<Row>& rows,
                                                  bool is_insert) {
  MaintenanceStats stats;
  stats.delta_rows = static_cast<int64_t>(rows.size());
  auto start = std::chrono::steady_clock::now();
  if (rows.empty()) {
    stats.total_micros = MicrosSince(start);
    return stats;
  }

  const Table* base = catalog_->GetTable(table);
  Relation delta_t(Evaluator::SchemaFor(*base));
  for (const Row& row : rows) delta_t.Add(row);

  // Pre-update state of the updated table: remove the inserted rows /
  // re-add the deleted rows.
  Relation old_state(Evaluator::SchemaFor(*base));
  if (is_insert) {
    const std::vector<int>& key_pos = base->key_positions();
    base->ForEach([&](const Row& row) {
      for (const Row& drow : rows) {
        bool same = true;
        for (int p : key_pos) {
          if (row[static_cast<size_t>(p)] != drow[static_cast<size_t>(p)]) {
            same = false;
            break;
          }
        }
        if (same) return;
      }
      old_state.Add(row);
    });
  } else {
    base->ForEach([&](const Row& row) { old_state.Add(row); });
    for (const Row& row : rows) old_state.Add(row);
  }

  // Evaluators for post-update ("new") and pre-update ("old") states.
  Evaluator eval_new(catalog_);
  eval_new.set_table_cache(&table_cache_);
  Evaluator eval_old(catalog_);
  eval_old.set_table_cache(&table_cache_);
  eval_old.OverrideTable(table, &old_state);

  // Change propagation. GK computes everything from base tables: at each
  // node above the update we re-evaluate the sibling subtree, and at
  // outer-join nodes also the updated-side subtree in both states.
  struct Propagator {
    const std::string& table;
    const Relation& delta_t;
    bool is_insert;
    Evaluator& eval_new;
    Evaluator& eval_old;

    DeltaPair Run(const RelExprPtr& expr) {
      switch (expr->kind()) {
        case RelKind::kScan: {
          OJV_CHECK(expr->table() == table, "propagation reached wrong leaf");
          DeltaPair d;
          if (is_insert) {
            d.ins = delta_t;
            d.del = Relation(delta_t.schema());
          } else {
            d.ins = Relation(delta_t.schema());
            d.del = delta_t;
          }
          return d;
        }
        case RelKind::kSelect: {
          // σ distributes over both delta sets.
          DeltaPair d = Run(expr->input());
          d.ins = FilterRelation(d.ins, expr->predicate());
          d.del = FilterRelation(d.del, expr->predicate());
          return d;
        }
        case RelKind::kJoin:
          return RunJoin(expr);
        default:
          OJV_CHECK(false, "unexpected node in view tree");
      }
    }

    static Relation FilterRelation(const Relation& input,
                                   const ScalarExprPtr& pred) {
      BoundScalar compiled = BoundScalar::Compile(pred, input.schema());
      Relation out(input.schema());
      for (const Row& row : input.rows()) {
        if (compiled.EvalBool(row)) out.Add(row);
      }
      return out;
    }

    // Joins `left` (relation) with `right` (relation) using an ad-hoc
    // plan through the evaluator.
    static Relation JoinRel(const Relation& l, const Relation& r,
                            JoinKind kind, const ScalarExprPtr& pred) {
      Evaluator ev(nullptr);
      ev.BindDelta("#l", &l);
      ev.BindDelta("#r", &r);
      return ev.EvalToRelation(RelExpr::Join(kind, RelExpr::DeltaScan("#l"),
                                   RelExpr::DeltaScan("#r"), pred));
    }

    DeltaPair RunJoin(const RelExprPtr& expr) {
      const bool on_left =
          expr->left()->ReferencedTables().count(table) > 0;
      const RelExprPtr& delta_side = on_left ? expr->left() : expr->right();
      const RelExprPtr& other_side = on_left ? expr->right() : expr->left();
      DeltaPair d = Run(delta_side);
      // GK property (a): the sibling is recomputed from base tables.
      Relation other = eval_new.EvalToRelation(other_side);

      JoinKind kind = expr->join_kind();
      const ScalarExprPtr& pred = expr->predicate();

      // Orient so the delta side is "e1": with the delta on the right we
      // mirror the join kind. Row identity is unaffected (columns are
      // identified by table tags, not positions).
      if (!on_left) {
        if (kind == JoinKind::kLeftOuter) kind = JoinKind::kRightOuter;
        else if (kind == JoinKind::kRightOuter) kind = JoinKind::kLeftOuter;
      }

      const bool preserves_delta_side = kind == JoinKind::kLeftOuter ||
                                        kind == JoinKind::kFullOuter;
      const bool preserves_other_side = kind == JoinKind::kRightOuter ||
                                        kind == JoinKind::kFullOuter;

      // Outer-join behavior on the delta side distributes exactly.
      JoinKind pair_kind =
          preserves_delta_side ? JoinKind::kLeftOuter : JoinKind::kInner;
      Relation ins_pairs = JoinRel(d.ins, other, pair_kind, pred);
      Relation del_pairs = JoinRel(d.del, other, pair_kind, pred);

      DeltaPair out;

      // Combined schema of this join's output.
      BoundSchema combined = ins_pairs.schema();

      out.ins = std::move(ins_pairs);
      out.del = std::move(del_pairs);

      if (preserves_other_side) {
        // Fix-ups for `other` tuples whose matched status flips. GK
        // property (a) again: both states of the delta-side subtree are
        // recomputed from base tables.
        Relation e1_old = eval_old.EvalToRelation(delta_side);
        Relation e1_new = eval_new.EvalToRelation(delta_side);
        // Newly unmatched: matched a deleted tuple, match nothing now.
        Relation newly_unmatched = JoinRel(
            JoinRel(other, d.del, JoinKind::kLeftSemi, pred), e1_new,
            JoinKind::kLeftAnti, pred);
        // Newly matched: matches an inserted tuple, matched nothing before.
        Relation newly_matched = JoinRel(
            JoinRel(other, d.ins, JoinKind::kLeftSemi, pred), e1_old,
            JoinKind::kLeftAnti, pred);
        out.ins = Concat(std::move(out.ins), NullExtend(newly_unmatched, combined));
        out.del = Concat(std::move(out.del), NullExtend(newly_matched, combined));
      }
      return out;
    }
  };

  Propagator prop{table, delta_t, is_insert, eval_new, eval_old};
  DeltaPair result = prop.Run(view_def_.tree());

  // Project to the view's output schema and apply.
  const BoundSchema& out_schema = view_def_.output_schema();
  auto project = [&](const Relation& rel) {
    Relation out(out_schema);
    std::vector<int> positions;
    for (const BoundColumn& col : out_schema.columns()) {
      positions.push_back(rel.schema().Find(col.table, col.column));
    }
    for (const Row& row : rel.rows()) {
      Row projected(static_cast<size_t>(out_schema.num_columns()),
                    Value::Null());
      for (size_t i = 0; i < positions.size(); ++i) {
        if (positions[i] >= 0) {
          projected[i] = row[static_cast<size_t>(positions[i])];
        }
      }
      out.Add(std::move(projected));
    }
    return out;
  };

  Relation del_rows = project(result.del);
  Relation ins_rows = project(result.ins);
  for (const Row& row : del_rows.rows()) {
    OJV_CHECK(view_store_->DeleteMatching(row),
              "GK delete row missing from view");
  }
  for (const Row& row : ins_rows.rows()) {
    view_store_->Insert(row);
  }
  stats.primary_rows = ins_rows.size() + del_rows.size();
  stats.total_micros = MicrosSince(start);
  return stats;
}

}  // namespace ojv

#include "exec/evaluator.h"

#include <algorithm>
#include <cstdint>
#include <set>

#include "common/check.h"
#include "exec/bound_scalar.h"
#include "exec/join_table.h"
#include "obs/metrics.h"

namespace ojv {
namespace {

// Hash of row values at given positions (NULL hashes to a sentinel),
// normalized so it never collides with JoinTable::kSkipHash.
size_t HashAt(const Row& row, const std::vector<int>& positions) {
  size_t h = 0xcbf29ce484222325ULL;
  for (int p : positions) {
    h ^= row[static_cast<size_t>(p)].Hash();
    h *= 0x100000001b3ULL;
  }
  return JoinTable::NormalizeHash(h);
}

bool AnyNullAt(const Row& row, const std::vector<int>& positions) {
  for (int p : positions) {
    if (row[static_cast<size_t>(p)].is_null()) return true;
  }
  return false;
}

bool EqualAt(const Row& a, const std::vector<int>& pa, const Row& b,
             const std::vector<int>& pb) {
  for (size_t i = 0; i < pa.size(); ++i) {
    if (a[static_cast<size_t>(pa[i])] != b[static_cast<size_t>(pb[i])]) {
      return false;
    }
  }
  return true;
}

size_t HashFullRow(const Row& row) {
  size_t h = 0xcbf29ce484222325ULL;
  for (const Value& v : row) {
    h ^= v.Hash();
    h *= 0x100000001b3ULL;
  }
  return JoinTable::NormalizeHash(h);
}

// Wraps a caller-owned relation without taking ownership.
std::shared_ptr<const Relation> NonOwning(const Relation* relation) {
  return std::shared_ptr<const Relation>(relation, [](const Relation*) {});
}

std::shared_ptr<const Relation> Owned(Relation relation) {
  return std::make_shared<const Relation>(std::move(relation));
}

// Join-key hashes for every row of `rel` (kSkipHash for NULL keys).
std::vector<size_t> HashRows(const Relation& rel,
                             const std::vector<int>& keys) {
  std::vector<size_t> hashes(static_cast<size_t>(rel.size()));
  for (int64_t i = 0; i < rel.size(); ++i) {
    const Row& row = rel.row(i);
    hashes[static_cast<size_t>(i)] =
        AnyNullAt(row, keys) ? JoinTable::kSkipHash : HashAt(row, keys);
  }
  return hashes;
}

// A join predicate split against its two input schemas.
struct JoinKeys {
  std::vector<int> left;   // left-input positions of the equality conjuncts
  std::vector<int> right;  // the matching right-input positions
  ScalarExprPtr residual;  // every other conjunct; null when none
};

// Column = column conjuncts with one side in each input become join keys;
// everything else is residual.
JoinKeys SplitJoinPredicate(const ScalarExprPtr& pred, const BoundSchema& l,
                            const BoundSchema& r) {
  JoinKeys keys;
  std::vector<ScalarExprPtr> residual_conjuncts;
  for (const ScalarExprPtr& c : SplitConjuncts(pred)) {
    bool handled = false;
    if (c->kind() == ScalarKind::kCompare &&
        c->compare_op() == CompareOp::kEq &&
        c->left()->kind() == ScalarKind::kColumn &&
        c->right()->kind() == ScalarKind::kColumn) {
      int ll = l.Find(c->left()->column());
      int lr = r.Find(c->right()->column());
      int rl = l.Find(c->right()->column());
      int rr = r.Find(c->left()->column());
      if (ll >= 0 && lr >= 0) {
        keys.left.push_back(ll);
        keys.right.push_back(lr);
        handled = true;
      } else if (rl >= 0 && rr >= 0) {
        keys.left.push_back(rl);
        keys.right.push_back(rr);
        handled = true;
      }
    }
    if (!handled) residual_conjuncts.push_back(c);
  }
  keys.residual = MakeConjunction(residual_conjuncts);
  return keys;
}

// Left columns then right columns.
BoundSchema CombinedSchema(const BoundSchema& l, const BoundSchema& r) {
  BoundSchema combined;
  for (const BoundColumn& c : l.columns()) combined.AddColumn(c);
  for (const BoundColumn& c : r.columns()) {
    OJV_CHECK(l.Find(c.table, c.column) < 0,
              "join inputs must have disjoint columns");
    combined.AddColumn(c);
  }
  return combined;
}

void CombineInto(const Row& lrow, const Row& rrow, Row* combined) {
  std::copy(lrow.begin(), lrow.end(), combined->begin());
  std::copy(rrow.begin(), rrow.end(),
            combined->begin() + static_cast<std::ptrdiff_t>(lrow.size()));
}

// Emits what a left/full outer, semi or anti join owes `lrow` once its
// matches are known: the null-extended row (to `width` columns) of an
// unmatched outer row, a matched semi row, an unmatched anti row.
void EmitLeftRow(JoinKind kind, const Row& lrow, bool matched, size_t width,
                 std::vector<Row>* dst) {
  switch (kind) {
    case JoinKind::kLeftOuter:
    case JoinKind::kFullOuter:
      if (!matched) {
        Row row = lrow;
        row.resize(width, Value::Null());
        dst->push_back(std::move(row));
      }
      break;
    case JoinKind::kLeftSemi:
      if (matched) dst->push_back(lrow);
      break;
    case JoinKind::kLeftAnti:
      if (!matched) dst->push_back(lrow);
      break;
    default:
      break;
  }
}

// Global join work counter (rows fed into join operators). It is the one
// join counter that counts regardless of tracing, so /metrics shows join
// volume without a trace attached.
obs::Counter& JoinRowsIn() {
  static obs::Counter& rows_in =
      obs::Registry::Global().GetCounter("ojv.exec.join.rows_in");
  return rows_in;
}

// The node a probe join fetches from: the join's right input, or the
// input of a selection there.
const RelExprPtr& RightScan(const RelExpr& join) {
  return join.right()->kind() == RelKind::kSelect ? join.right()->input()
                                                  : join.right();
}

}  // namespace

int ProbePath(const RelExpr& join, const Catalog& catalog) {
  const JoinKind kind = join.join_kind();
  if (kind != JoinKind::kInner && kind != JoinKind::kLeftOuter &&
      kind != JoinKind::kLeftSemi && kind != JoinKind::kLeftAnti) {
    return Table::kNoPath;
  }
  const RelExprPtr& scan = RightScan(join);
  if (scan->kind() != RelKind::kScan || !catalog.HasTable(scan->table())) {
    return Table::kNoPath;
  }
  const std::set<std::string> left_tables = join.left()->ReferencedTables();
  if (left_tables.count(scan->table()) > 0) return Table::kNoPath;
  const Table& table = *catalog.GetTable(scan->table());
  std::vector<int> eq_positions;
  for (const ScalarExprPtr& c : SplitConjuncts(join.predicate())) {
    if (c->kind() != ScalarKind::kCompare ||
        c->compare_op() != CompareOp::kEq ||
        c->left()->kind() != ScalarKind::kColumn ||
        c->right()->kind() != ScalarKind::kColumn) {
      continue;
    }
    const bool left_is_own = c->left()->column().table == table.name();
    const ColumnRef& own =
        left_is_own ? c->left()->column() : c->right()->column();
    const ColumnRef& other =
        left_is_own ? c->right()->column() : c->left()->column();
    if (own.table != table.name() || left_tables.count(other.table) == 0) {
      continue;
    }
    const int position = table.schema().Find(own.column);
    if (position >= 0) eq_positions.push_back(position);
  }
  return table.AccessPath(eq_positions);
}

std::shared_ptr<const Relation> TableRelationCache::Get(const Table& table) {
  Entry& entry = entries_[table.name()];
  if (entry.relation == nullptr || entry.version != table.version()) {
    entry.relation =
        std::make_shared<const Relation>(Evaluator::RelationFrom(table));
    entry.version = table.version();
  }
  return entry.relation;
}

BoundSchema Evaluator::SchemaFor(const Table& table) {
  BoundSchema schema;
  for (int i = 0; i < table.schema().num_columns(); ++i) {
    const ColumnDef& def = table.schema().column(i);
    int key_ordinal = -1;
    for (size_t k = 0; k < table.key_positions().size(); ++k) {
      if (table.key_positions()[k] == i) {
        key_ordinal = static_cast<int>(k);
      }
    }
    schema.AddColumn(
        BoundColumn{table.name(), def.name, def.type, key_ordinal});
  }
  return schema;
}

Relation Evaluator::RelationFrom(const Table& table) {
  Relation rel(SchemaFor(table));
  rel.mutable_rows()->reserve(static_cast<size_t>(table.size()));
  table.ForEach([&](const Row& row) { rel.Add(row); });
  return rel;
}

std::shared_ptr<const Relation> Evaluator::Eval(const RelExprPtr& expr) const {
  OJV_CHECK(expr != nullptr, "null relational expression");
  if (trace_ != nullptr) return EvalTraced(expr);
  // Untraced runs still feed the flight recorder so a post-hoc dump
  // shows per-operator timings, not just the enclosing Span.
  if (obs::flight_hook::Sample()) {
    const int64_t start = obs::flight_hook::NowMicros();
    std::shared_ptr<const Relation> result = EvalNode(expr);
    obs::flight_hook::Record(ExecSpanNameFor(expr->kind()), "exec", start,
                             obs::flight_hook::NowMicros() - start);
    return result;
  }
  return EvalNode(expr);
}

const char* ExecSpanNameFor(RelKind kind) {
  switch (kind) {
    case RelKind::kScan:
      return "exec.scan";
    case RelKind::kDeltaScan:
      return "exec.delta_scan";
    case RelKind::kSelect:
      return "exec.select";
    case RelKind::kProject:
      return "exec.project";
    case RelKind::kJoin:
      return "exec.join";
    case RelKind::kDedup:
      return "exec.dedup";
    case RelKind::kSubsumeRemove:
      return "exec.subsume";
    case RelKind::kOuterUnion:
      return "exec.outer_union";
    case RelKind::kMinUnion:
      return "exec.min_union";
    case RelKind::kNullIf:
      return "exec.nullif";
  }
  return "exec.node";
}

std::shared_ptr<const Relation> Evaluator::EvalTraced(
    const RelExprPtr& expr) const {
  const int64_t start = trace_->NowMicros();
  // EvalNode recurses through Eval for the children, so by the time it
  // returns, every child has already recorded its span and cleared the
  // pending buffers — what is left in them was staged by this node.
  std::shared_ptr<const Relation> result = EvalNode(expr);
  const int64_t end = trace_->NowMicros();
  std::vector<std::pair<std::string, int64_t>> args = std::move(pending_args_);
  pending_args_.clear();
  std::vector<std::pair<std::string, std::string>> str_args =
      std::move(pending_str_args_);
  pending_str_args_.clear();
  args.emplace_back("rows_out", result->size());
  if (expr->kind() == RelKind::kScan || expr->kind() == RelKind::kDeltaScan) {
    str_args.emplace_back("table", expr->table());
  }
  trace_->RecordComplete(ExecSpanNameFor(expr->kind()), "exec", start,
                         end - start,
                         std::move(args), std::move(str_args));
  if (obs::flight_hook::Sample()) {
    // Re-anchor on the recorder's clock: the context's micros are
    // relative to the context's epoch, not the process's.
    const int64_t fnow = obs::flight_hook::NowMicros();
    obs::flight_hook::Record(ExecSpanNameFor(expr->kind()), "exec",
                             fnow - (end - start), end - start);
  }
  return result;
}

std::shared_ptr<const Relation> Evaluator::EvalNode(
    const RelExprPtr& expr) const {
  switch (expr->kind()) {
    case RelKind::kScan:
      return EvalScan(*expr);
    case RelKind::kDeltaScan:
      return EvalDeltaScan(*expr);
    case RelKind::kSelect:
      return Owned(EvalSelect(*expr));
    case RelKind::kProject:
      return Owned(EvalProject(*expr));
    case RelKind::kJoin:
      return Owned(EvalJoin(*expr));
    case RelKind::kDedup: {
      std::shared_ptr<const Relation> in = Eval(expr->input());
      NoteArg("rows_in", in->size());
      return Owned(DedupRows(*in));
    }
    case RelKind::kSubsumeRemove: {
      std::shared_ptr<const Relation> in = Eval(expr->input());
      NoteArg("rows_in", in->size());
      return Owned(RemoveSubsumed(*in));
    }
    case RelKind::kOuterUnion:
      return Owned(OuterUnionOf(*Eval(expr->left()), *Eval(expr->right())));
    case RelKind::kMinUnion: {
      Relation unioned =
          OuterUnionOf(*Eval(expr->left()), *Eval(expr->right()));
      return Owned(RemoveSubsumed(std::move(unioned)));
    }
    case RelKind::kNullIf:
      return Owned(EvalNullIf(*expr));
  }
  OJV_CHECK(false, "unreachable");
}

std::shared_ptr<const Relation> Evaluator::EvalScan(const RelExpr& expr) const {
  auto it = overrides_.find(expr.table());
  if (it != overrides_.end()) return NonOwning(it->second);
  const Table* table = catalog_->GetTable(expr.table());
  if (cache_ != nullptr) return cache_->Get(*table);
  return Owned(RelationFrom(*table));
}

std::shared_ptr<const Relation> Evaluator::EvalDeltaScan(
    const RelExpr& expr) const {
  auto it = deltas_.find(expr.table());
  OJV_CHECK(it != deltas_.end(), "unbound delta scan");
  return NonOwning(it->second);
}

Relation Evaluator::EvalSelect(const RelExpr& expr) const {
  std::shared_ptr<const Relation> in = Eval(expr.input());
  NoteArg("rows_in", in->size());
  BoundScalar pred = BoundScalar::Compile(expr.predicate(), in->schema());
  Relation out(in->schema());
  std::vector<Row>& dst = *out.mutable_rows();
  dst.reserve(in->rows().size());
  for (const Row& row : in->rows()) {
    if (pred.EvalBool(row)) dst.push_back(row);
  }
  return out;
}

Relation Evaluator::EvalProject(const RelExpr& expr) const {
  std::shared_ptr<const Relation> in = Eval(expr.input());
  NoteArg("rows_in", in->size());
  BoundSchema schema;
  std::vector<int> positions;
  for (const ColumnRef& ref : expr.projection()) {
    int p = in->schema().IndexOf(ref);
    positions.push_back(p);
    schema.AddColumn(in->schema().column(p));
  }
  Relation out(std::move(schema));
  std::vector<Row>& dst = *out.mutable_rows();
  dst.reserve(in->rows().size());
  for (const Row& row : in->rows()) {
    Row projected;
    projected.reserve(positions.size());
    for (int p : positions) projected.push_back(row[static_cast<size_t>(p)]);
    dst.push_back(std::move(projected));
  }
  return out;
}

Relation Evaluator::EvalNullIf(const RelExpr& expr) const {
  std::shared_ptr<const Relation> in = Eval(expr.input());
  NoteArg("rows_in", in->size());
  BoundScalar pred = BoundScalar::Compile(expr.predicate(), in->schema());
  // Positions of columns belonging to the nulled tables.
  std::vector<int> null_positions;
  for (int i = 0; i < in->schema().num_columns(); ++i) {
    if (expr.null_tables().count(in->schema().column(i).table) > 0) {
      null_positions.push_back(i);
    }
  }
  Relation out(in->schema());
  std::vector<Row>& dst = *out.mutable_rows();
  dst.reserve(in->rows().size());
  for (const Row& row : in->rows()) {
    if (pred.EvalBool(row)) {
      dst.push_back(row);
    } else {
      Row nulled = row;
      for (int p : null_positions) {
        nulled[static_cast<size_t>(p)] = Value::Null();
      }
      dst.push_back(std::move(nulled));
    }
  }
  return out;
}

Relation Evaluator::EvalJoin(const RelExpr& expr) const {
  std::shared_ptr<const Relation> lp = Eval(expr.left());
  if (probe_joins_ != nullptr && probe_joins_->count(&expr) > 0 &&
      catalog_ != nullptr && overrides_.count(RightScan(expr)->table()) == 0) {
    const int path = ProbePath(expr, *catalog_);
    if (path != Table::kNoPath) return ProbeJoin(expr, *lp, path);
  }
  std::shared_ptr<const Relation> rp = Eval(expr.right());
  return HashJoin(expr, *lp, *rp);
}

Relation Evaluator::ProbeJoin(const RelExpr& expr, const Relation& l,
                              int path) const {
  const JoinKind kind = expr.join_kind();
  const RelExprPtr& right = expr.right();
  const bool has_select = right->kind() == RelKind::kSelect;
  const RelExprPtr& scan = RightScan(expr);
  const Table& table = *catalog_->GetTable(scan->table());
  const BoundSchema rschema = SchemaFor(table);
  const JoinKeys keys = SplitJoinPredicate(expr.predicate(), l.schema(),
                                           rschema);
  const std::vector<int>& path_columns = path == Table::kUniqueKeyPath
                                             ? table.key_positions()
                                             : table.index_positions(path);
  // For each lookup column, the left position that supplies its value.
  // Right positions are table column positions: SchemaFor keeps order.
  std::vector<int> lookup_from;
  for (int column : path_columns) {
    auto it = std::find(keys.right.begin(), keys.right.end(), column);
    OJV_CHECK(it != keys.right.end(),
              "probe join lookup column missing from the left input");
    lookup_from.push_back(keys.left[static_cast<size_t>(
        it - keys.right.begin())]);
  }

  const bool semi_or_anti =
      kind == JoinKind::kLeftSemi || kind == JoinKind::kLeftAnti;
  NoteArg("kind", std::string(JoinKindName(kind)));
  NoteArg("algo", std::string("index"));
  NoteArg("build_rows", int64_t{0});
  NoteArg("probe_rows", l.size());

  const BoundSchema combined = CombinedSchema(l.schema(), rschema);
  BoundScalar right_pred;
  if (has_select) right_pred = BoundScalar::Compile(right->predicate(), rschema);
  BoundScalar residual;
  const bool has_residual = keys.residual != nullptr;
  if (has_residual) residual = BoundScalar::Compile(keys.residual, combined);

  // Each fetched row passes the right side's selection, the equality
  // conjuncts the lookup did not cover, and the residual, in that order.
  Relation out(semi_or_anti ? l.schema() : combined);
  std::vector<Row>& dst = *out.mutable_rows();
  dst.reserve(static_cast<size_t>(l.size()));
  Row combined_row(static_cast<size_t>(combined.num_columns()));
  Row lookup(path_columns.size());
  int64_t fetched = 0;
  int64_t selected = 0;
  int64_t probe_hits = 0;
  for (const Row& lrow : l.rows()) {
    bool matched = false;
    auto visit = [&](const Row& rrow) {
      ++fetched;
      if (has_select) {
        if (!right_pred.EvalBool(rrow)) return true;
        ++selected;
      }
      if (!EqualAt(lrow, keys.left, rrow, keys.right)) return true;
      if (has_residual || !semi_or_anti) {
        CombineInto(lrow, rrow, &combined_row);
      }
      if (has_residual && !residual.EvalBool(combined_row)) return true;
      matched = true;
      ++probe_hits;
      if (!semi_or_anti) dst.push_back(combined_row);
      return !semi_or_anti;  // semi/anti: the first match settles the row
    };
    // SQL equality never matches a NULL key.
    if (!AnyNullAt(lrow, keys.left)) {
      for (size_t k = 0; k < lookup_from.size(); ++k) {
        lookup[k] = lrow[static_cast<size_t>(lookup_from[k])];
      }
      if (path == Table::kUniqueKeyPath) {
        if (const Row* rrow = table.FindByKey(lookup)) visit(*rrow);
      } else {
        table.ForEachIndexed(path, lookup, visit);
      }
    }
    EmitLeftRow(kind, lrow, matched,
                static_cast<size_t>(combined.num_columns()), &dst);
  }
  NoteArg("probe_hits", probe_hits);
  JoinRowsIn().Add(l.size() + fetched);
  if (trace_ != nullptr) {
    // The right input never ran as a plan of its own; record its nodes'
    // spans (post-order, before the join's own) with what the lookups
    // fetched. Their time is the join's: the lookups run inside it.
    const int64_t now = trace_->NowMicros();
    trace_->RecordComplete(ExecSpanNameFor(RelKind::kScan), "exec", now, 0,
                           {{"rows_out", fetched}},
                           {{"table", scan->table()}});
    if (has_select) {
      trace_->RecordComplete(ExecSpanNameFor(RelKind::kSelect), "exec", now,
                             0, {{"rows_in", fetched}, {"rows_out", selected}},
                             {});
    }
  }
  return out;
}

Relation Evaluator::HashJoin(const RelExpr& expr, const Relation& l,
                             const Relation& r) const {
  const JoinKind kind = expr.join_kind();
  const bool semi_or_anti =
      kind == JoinKind::kLeftSemi || kind == JoinKind::kLeftAnti;
  NoteArg("kind", std::string(JoinKindName(kind)));
  JoinRowsIn().Add(l.size() + r.size());
  // Probe-side key matches that passed the residual (a span arg).
  int64_t probe_hits = 0;

  const BoundSchema combined = CombinedSchema(l.schema(), r.schema());
  // Split the predicate into hashable equality conjuncts and a residual.
  JoinKeys keys = SplitJoinPredicate(expr.predicate(), l.schema(), r.schema());
  const std::vector<int>& left_keys = keys.left;
  const std::vector<int>& right_keys = keys.right;
  const ScalarExprPtr& residual_expr = keys.residual;

  if (join_algorithm_ == JoinAlgorithm::kSortMerge && !left_keys.empty() &&
      !semi_or_anti) {
    NoteArg("algo", std::string("sortmerge"));
    NoteArg("left_rows", l.size());
    NoteArg("right_rows", r.size());
    return EvalSortMergeJoin(expr, l, r, left_keys, right_keys,
                             residual_expr);
  }
  NoteArg("algo", std::string(left_keys.empty() ? "nested_loop" : "hash"));

  BoundScalar residual;
  const bool has_residual = residual_expr != nullptr;
  if (has_residual) residual = BoundScalar::Compile(residual_expr, combined);
  const int lcols = l.schema().num_columns();
  const int rcols = r.schema().num_columns();

  // Inner joins are symmetric: build the hash table over the smaller
  // input and probe with the larger (output column order is unchanged).
  if (kind == JoinKind::kInner && !left_keys.empty() && l.size() < r.size()) {
    std::vector<size_t> build_hashes = HashRows(l, left_keys);
    JoinTable table;
    table.Build(build_hashes);
    std::vector<size_t> probe_hashes = HashRows(r, right_keys);
    NoteArg("build_rows", table.size());
    NoteArg("build_capacity", static_cast<int64_t>(table.capacity()));
    NoteArg("probe_rows", r.size());
    NoteArg("build_side", std::string("left"));
    Relation out(combined);
    std::vector<Row>& dst = *out.mutable_rows();
    // One output per probe row is the common case (key joins);
    // reserving it up front avoids regrowth inside the hot loop.
    dst.reserve(static_cast<size_t>(r.size()));
    Row combined_row(static_cast<size_t>(lcols + rcols));
    for (int64_t ri = 0; ri < r.size(); ++ri) {
      const size_t h = probe_hashes[static_cast<size_t>(ri)];
      if (h == JoinTable::kSkipHash) continue;
      const Row& rrow = r.row(ri);
      table.ForEachMatch(h, [&](int64_t li) {
        const Row& lrow = l.row(li);
        if (!EqualAt(lrow, left_keys, rrow, right_keys)) return true;
        ++probe_hits;
        CombineInto(lrow, rrow, &combined_row);
        if (!has_residual || residual.EvalBool(combined_row)) {
          dst.push_back(combined_row);
        }
        return true;
      });
    }
    NoteArg("probe_hits", probe_hits);
    return out;
  }

  // Build hash table over the right input (skips NULL keys: SQL equality
  // can never match them).
  JoinTable table;
  std::vector<size_t> probe_hashes;
  if (!left_keys.empty()) {
    std::vector<size_t> build_hashes = HashRows(r, right_keys);
    table.Build(build_hashes);
    probe_hashes = HashRows(l, left_keys);
    NoteArg("build_rows", table.size());
    NoteArg("build_capacity", static_cast<int64_t>(table.capacity()));
    NoteArg("build_side", std::string("right"));
  }
  NoteArg("probe_rows", l.size());

  // Right-side match flags feed the right/full-outer pass below.
  const bool track_right =
      kind == JoinKind::kRightOuter || kind == JoinKind::kFullOuter;
  std::vector<char> right_matched(track_right ? static_cast<size_t>(r.size())
                                              : 0);

  Relation out(semi_or_anti ? l.schema() : combined);
  std::vector<Row>& dst = *out.mutable_rows();
  // Outer joins emit at least one row per probe row; reserve that floor
  // so the hot loop does not regrow the buffer.
  dst.reserve(static_cast<size_t>(l.size()));
  Row combined_row(static_cast<size_t>(lcols + rcols));
  for (int64_t li = 0; li < l.size(); ++li) {
    const Row& lrow = l.row(li);
    bool matched = false;
    auto try_match = [&](int64_t ri) {
      const Row& rrow = r.row(ri);
      if (!left_keys.empty() && !EqualAt(lrow, left_keys, rrow, right_keys)) {
        return true;  // hash collision; keep probing
      }
      if (has_residual || !semi_or_anti) {
        CombineInto(lrow, rrow, &combined_row);
      }
      if (has_residual && !residual.EvalBool(combined_row)) return true;
      matched = true;
      ++probe_hits;
      if (track_right) right_matched[static_cast<size_t>(ri)] = 1;
      if (!semi_or_anti) dst.push_back(combined_row);
      return !semi_or_anti;  // semi/anti: first match settles the row
    };
    if (!left_keys.empty()) {
      const size_t h = probe_hashes[static_cast<size_t>(li)];
      if (h != JoinTable::kSkipHash) table.ForEachMatch(h, try_match);
    } else {
      for (int64_t ri = 0; ri < r.size(); ++ri) {
        if (!try_match(ri)) break;
      }
    }
    EmitLeftRow(kind, lrow, matched, static_cast<size_t>(lcols + rcols),
                &dst);
  }
  NoteArg("probe_hits", probe_hits);
  if (track_right) {
    const int64_t unmatched =
        std::count(right_matched.begin(), right_matched.end(), 0);
    dst.reserve(dst.size() + static_cast<size_t>(unmatched));
    for (int64_t ri = 0; ri < r.size(); ++ri) {
      if (!right_matched[static_cast<size_t>(ri)]) {
        Row row(static_cast<size_t>(lcols), Value::Null());
        const Row& rrow = r.row(ri);
        row.insert(row.end(), rrow.begin(), rrow.end());
        out.Add(std::move(row));
      }
    }
  }
  return out;
}

Relation Evaluator::EvalSortMergeJoin(
    const RelExpr& expr, const Relation& l, const Relation& r,
    const std::vector<int>& left_keys, const std::vector<int>& right_keys,
    const ScalarExprPtr& residual_expr) const {
  const JoinKind kind = expr.join_kind();
  BoundSchema combined;
  for (const BoundColumn& c : l.schema().columns()) combined.AddColumn(c);
  for (const BoundColumn& c : r.schema().columns()) combined.AddColumn(c);
  BoundScalar residual;
  const bool has_residual = residual_expr != nullptr;
  if (has_residual) residual = BoundScalar::Compile(residual_expr, combined);

  // Sort row indexes by key; NULL keys sort first and are skipped by the
  // merge (SQL equality never matches them) but still surface through
  // the outer-join passes below.
  auto order_by = [](const Relation& rel, const std::vector<int>& keys) {
    std::vector<int64_t> idx(static_cast<size_t>(rel.size()));
    for (int64_t i = 0; i < rel.size(); ++i) idx[static_cast<size_t>(i)] = i;
    std::sort(idx.begin(), idx.end(), [&](int64_t a, int64_t b) {
      for (int k : keys) {
        int c = rel.row(a)[static_cast<size_t>(k)].SortCompare(
            rel.row(b)[static_cast<size_t>(k)]);
        if (c != 0) return c < 0;
      }
      return a < b;
    });
    return idx;
  };
  std::vector<int64_t> li = order_by(l, left_keys);
  std::vector<int64_t> ri = order_by(r, right_keys);

  auto key_null = [](const Relation& rel, int64_t row,
                     const std::vector<int>& keys) {
    for (int k : keys) {
      if (rel.row(row)[static_cast<size_t>(k)].is_null()) return true;
    }
    return false;
  };
  auto compare = [&](int64_t lr, int64_t rr) {
    for (size_t k = 0; k < left_keys.size(); ++k) {
      int c = l.row(lr)[static_cast<size_t>(left_keys[k])].SortCompare(
          r.row(rr)[static_cast<size_t>(right_keys[k])]);
      if (c != 0) return c;
    }
    return 0;
  };

  Relation out(combined);
  // Equality joins emit at least one row per matched key pair and the
  // outer passes at most one per input row; reserving the larger input
  // avoids most regrowth during the merge.
  out.mutable_rows()->reserve(
      static_cast<size_t>(std::max(l.size(), r.size())));
  std::vector<char> left_matched(static_cast<size_t>(l.size()), 0);
  std::vector<char> right_matched(static_cast<size_t>(r.size()), 0);
  const int lcols = l.schema().num_columns();
  const int rcols = r.schema().num_columns();
  Row combined_row(static_cast<size_t>(lcols + rcols));

  size_t a = 0;
  size_t b = 0;
  while (a < li.size() && key_null(l, li[a], left_keys)) ++a;
  while (b < ri.size() && key_null(r, ri[b], right_keys)) ++b;
  while (a < li.size() && b < ri.size()) {
    int c = compare(li[a], ri[b]);
    if (c < 0) {
      ++a;
      continue;
    }
    if (c > 0) {
      ++b;
      continue;
    }
    // Equal-key groups: cross product.
    size_t a_end = a;
    while (a_end < li.size() && compare(li[a_end], ri[b]) == 0) ++a_end;
    size_t b_end = b;
    while (b_end < ri.size() && compare(li[a], ri[b_end]) == 0) ++b_end;
    for (size_t i = a; i < a_end; ++i) {
      const Row& lrow = l.row(li[i]);
      for (size_t j = b; j < b_end; ++j) {
        const Row& rrow = r.row(ri[j]);
        for (int x = 0; x < lcols; ++x) {
          combined_row[static_cast<size_t>(x)] = lrow[static_cast<size_t>(x)];
        }
        for (int x = 0; x < rcols; ++x) {
          combined_row[static_cast<size_t>(lcols + x)] =
              rrow[static_cast<size_t>(x)];
        }
        if (has_residual && !residual.EvalBool(combined_row)) continue;
        left_matched[static_cast<size_t>(li[i])] = 1;
        right_matched[static_cast<size_t>(ri[j])] = 1;
        out.Add(combined_row);
      }
    }
    a = a_end;
    b = b_end;
  }

  if (kind == JoinKind::kLeftOuter || kind == JoinKind::kFullOuter) {
    for (int64_t i = 0; i < l.size(); ++i) {
      if (!left_matched[static_cast<size_t>(i)]) {
        Row row = l.row(i);
        row.resize(static_cast<size_t>(lcols + rcols), Value::Null());
        out.Add(std::move(row));
      }
    }
  }
  if (kind == JoinKind::kRightOuter || kind == JoinKind::kFullOuter) {
    for (int64_t i = 0; i < r.size(); ++i) {
      if (!right_matched[static_cast<size_t>(i)]) {
        Row row(static_cast<size_t>(lcols), Value::Null());
        const Row& rrow = r.row(i);
        row.insert(row.end(), rrow.begin(), rrow.end());
        out.Add(std::move(row));
      }
    }
  }
  return out;
}

Relation Evaluator::DedupRows(Relation input) {
  const std::vector<Row>& rows = input.rows();
  if (rows.size() <= 1) return input;

  std::vector<size_t> hashes(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) hashes[i] = HashFullRow(rows[i]);
  JoinTable table;
  table.Build(hashes);

  // A row is a duplicate iff some earlier row equals it. ForEachMatch
  // enumerates in ascending row order, so the first row-equal match is
  // either an earlier duplicate or the row itself.
  std::vector<char> drop(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    table.ForEachMatch(hashes[i], [&](int64_t j) {
      if (static_cast<size_t>(j) >= i) return false;
      if (rows[static_cast<size_t>(j)] == row) {
        drop[i] = 1;
        return false;
      }
      return true;
    });
  }

  std::vector<Row> kept;
  kept.reserve(rows.size());
  std::vector<Row>& mutable_rows = *input.mutable_rows();
  for (size_t i = 0; i < mutable_rows.size(); ++i) {
    if (!drop[i]) kept.push_back(std::move(mutable_rows[i]));
  }
  mutable_rows = std::move(kept);
  return input;
}

Relation Evaluator::RemoveSubsumed(Relation input) {
  const std::vector<Row>& rows = input.rows();
  if (rows.empty()) return input;
  const size_t cols = rows[0].size();
  const size_t words = (cols + 63) / 64;

  // Non-null masks as packed bitsets (bit c set = column c non-null),
  // one `words`-wide group per row in a flat array.
  std::vector<uint64_t> masks(rows.size() * words, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    uint64_t* mask = &masks[i * words];
    for (size_t c = 0; c < cols; ++c) {
      if (!rows[i][c].is_null()) mask[c / 64] |= uint64_t{1} << (c % 64);
    }
  }

  // Group row indexes by mask. Distinct masks are few (one per term
  // shape of the normal form), so a linear scan of the group list beats
  // any hashing.
  struct Group {
    const uint64_t* mask;
    std::vector<size_t> rows;
  };
  std::vector<Group> groups;
  for (size_t i = 0; i < rows.size(); ++i) {
    const uint64_t* mask = &masks[i * words];
    Group* group = nullptr;
    for (Group& g : groups) {
      if (std::equal(mask, mask + words, g.mask)) {
        group = &g;
        break;
      }
    }
    if (group == nullptr) {
      groups.push_back(Group{mask, {}});
      group = &groups.back();
    }
    group->rows.push_back(i);
  }
  if (groups.size() == 1) return input;  // identical masks cannot subsume

  auto strict_subset = [&](const uint64_t* small, const uint64_t* big) {
    bool strict = false;
    for (size_t w = 0; w < words; ++w) {
      if ((small[w] & ~big[w]) != 0) return false;
      if ((big[w] & ~small[w]) != 0) strict = true;
    }
    return strict;
  };

  // For each mask, find the strict-superset masks and test membership of
  // each row's non-null projection among superset rows. The flat table
  // and its hash buffer are reused across mask pairs (capacity sticks),
  // replacing the per-pair unordered_multimap rebuild.
  std::vector<char> drop(rows.size(), 0);
  JoinTable table;
  std::vector<size_t> sup_hashes;
  std::vector<int> proj;
  for (const Group& sub : groups) {
    proj.clear();
    for (size_t c = 0; c < cols; ++c) {
      if ((sub.mask[c / 64] >> (c % 64)) & 1) {
        proj.push_back(static_cast<int>(c));
      }
    }
    for (const Group& sup : groups) {
      if (!strict_subset(sub.mask, sup.mask)) continue;
      sup_hashes.resize(sup.rows.size());
      for (size_t k = 0; k < sup.rows.size(); ++k) {
        sup_hashes[k] = HashAt(rows[sup.rows[k]], proj);
      }
      table.Build(sup_hashes);
      for (size_t i : sub.rows) {
        if (drop[i]) continue;
        table.ForEachMatch(HashAt(rows[i], proj), [&](int64_t t) {
          if (EqualAt(rows[i], proj, rows[sup.rows[static_cast<size_t>(t)]],
                      proj)) {
            drop[i] = 1;
            return false;
          }
          return true;
        });
      }
    }
  }
  std::vector<Row> kept;
  kept.reserve(rows.size());
  std::vector<Row>& mutable_rows = *input.mutable_rows();
  for (size_t i = 0; i < mutable_rows.size(); ++i) {
    if (!drop[i]) kept.push_back(std::move(mutable_rows[i]));
  }
  mutable_rows = std::move(kept);
  return input;
}

Relation Evaluator::OuterUnionOf(const Relation& a, const Relation& b) {
  BoundSchema schema = a.schema();
  for (const BoundColumn& c : b.schema().columns()) {
    if (schema.Find(c.table, c.column) < 0) schema.AddColumn(c);
  }
  Relation out(schema);
  const int total = schema.num_columns();
  out.mutable_rows()->reserve(static_cast<size_t>(a.size() + b.size()));
  for (const Row& row : a.rows()) {
    Row padded = row;
    padded.resize(static_cast<size_t>(total), Value::Null());
    out.Add(std::move(padded));
  }
  // Map b's columns into the combined schema.
  std::vector<int> to_combined;
  for (const BoundColumn& c : b.schema().columns()) {
    to_combined.push_back(schema.Find(c.table, c.column));
  }
  for (const Row& row : b.rows()) {
    Row mapped(static_cast<size_t>(total), Value::Null());
    for (size_t i = 0; i < row.size(); ++i) {
      mapped[static_cast<size_t>(to_combined[i])] = row[i];
    }
    out.Add(std::move(mapped));
  }
  return out;
}

}  // namespace ojv

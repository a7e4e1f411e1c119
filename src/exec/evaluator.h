#ifndef OJV_EXEC_EVALUATOR_H_
#define OJV_EXEC_EVALUATOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "algebra/rel_expr.h"
#include "catalog/catalog.h"
#include "exec/relation.h"
#include "obs/trace.h"

namespace ojv {

/// Span name the evaluator records for a node of this kind (e.g.
/// "exec.join"). EXPLAIN zips recorded exec spans back onto plan trees
/// by this name.
const char* ExecSpanNameFor(RelKind kind);

/// Version-checked cache of base tables materialized as tagged
/// relations. A maintenance operation evaluates several expressions over
/// the same (unchanging) base tables; the cache makes each table's
/// materialization once per table version instead of once per scan.
class TableRelationCache {
 public:
  /// Returns the relation for `table`'s current contents; rebuilt only
  /// when the table's version changed since the last call.
  std::shared_ptr<const Relation> Get(const Table& table);

 private:
  struct Entry {
    uint64_t version = 0;
    std::shared_ptr<const Relation> relation;
  };
  // Hot path: hit once per scan node per evaluation.
  std::unordered_map<std::string, Entry> entries_;
};

/// How a probe join of `join` fetches its right rows:
/// Table::kUniqueKeyPath, the id of an index of the right table, or
/// Table::kNoPath when `join` cannot probe. It can when it is an inner,
/// left outer, left semi or left anti join, its right input is Scan(T)
/// or Select(Scan(T)) of a catalog table T that its left input does not
/// mention, and its column = column conjuncts between T and the left
/// input's tables cover T's unique key or one of T's indexes. The
/// planner marks probe joins, and the Evaluator runs them, by this rule.
int ProbePath(const RelExpr& join, const Catalog& catalog);

/// Executes relational expression trees against a catalog.
///
/// Joins with equality conjuncts run as hash joins; otherwise nested
/// loops. Join nodes the caller marks as probe joins (set_probe_joins)
/// run as index nested loops instead: only the left input is evaluated,
/// and each of its rows fetches the matching base rows of the right
/// input's table through the table's unique key or a secondary index.
/// Delta scans resolve through named bindings supplied by the
/// caller (the maintainer binds ΔT under the table's own name, and the
/// secondary-delta machinery binds intermediates like "#primary").
/// Table overrides let a caller evaluate a subtree against a substituted
/// table state (the Griffin–Kumar baseline uses this for pre-update
/// states). Results are shared pointers so scan outputs (cached base
/// tables, bound deltas) are never copied.
class Evaluator {
 public:
  /// Physical join algorithm for equality joins. kHash (default) builds
  /// a hash table on one input; kSortMerge sorts both inputs on the
  /// equality keys and merges — same results, different cost profile
  /// (used for cross-validation and by the operator benchmarks).
  enum class JoinAlgorithm { kHash, kSortMerge };

  explicit Evaluator(const Catalog* catalog) : catalog_(catalog) {}

  void set_join_algorithm(JoinAlgorithm algorithm) {
    join_algorithm_ = algorithm;
  }

  /// Binds the relation produced for DeltaScan(name). The relation must
  /// outlive the evaluator's uses.
  void BindDelta(const std::string& name, const Relation* delta) {
    deltas_[name] = delta;
  }

  /// Substitutes `relation` for Scan(table) during evaluation.
  void OverrideTable(const std::string& table, const Relation* relation) {
    overrides_[table] = relation;
  }

  void ClearOverrides() { overrides_.clear(); }

  /// Uses `cache` for base-table scans (optional; not owned).
  void set_table_cache(TableRelationCache* cache) { cache_ = cache; }

  /// Join nodes to run as probe joins (optional; not owned). A marked
  /// join probes when ProbePath finds it an access path and its right
  /// table is not overridden; otherwise it runs as a hash join. Either
  /// way the output bag is the same.
  void set_probe_joins(const std::unordered_set<const RelExpr*>* joins) {
    probe_joins_ = joins;
  }

  /// Trace sink (optional; not owned). With a sink attached, every
  /// operator node records one span — rows in/out, and for joins the
  /// algorithm, build size and probe hits. Spans are recorded *after* the
  /// node's own work, so their order is a post-order walk of the plan
  /// tree (ExplainMaintenance relies on this to zip timings onto the
  /// tree). A span's duration covers the node's whole subtree, like
  /// EXPLAIN ANALYZE totals. A probe join (algo=index, build_rows=0)
  /// still records one span per right-side node, with the rows its
  /// lookups fetched and selected and zero duration: that time is the
  /// join's.
  void set_trace(obs::TraceContext* trace) { trace_ = trace; }

  /// Evaluates the tree; the result may alias a cached or bound
  /// relation and must be treated as immutable.
  std::shared_ptr<const Relation> Eval(const RelExprPtr& expr) const;

  /// Evaluates the tree into a relation the caller owns. An operator
  /// root's result is moved out, since this evaluation alone holds it; a
  /// bare Scan or DeltaScan root may alias a cached or bound relation, so
  /// its result is copied.
  Relation EvalToRelation(const RelExprPtr& expr) const;

  /// Tagged bound schema for a base table (columns carry key ordinals).
  static BoundSchema SchemaFor(const Table& table);

  /// Materializes a base table as a tagged relation.
  static Relation RelationFrom(const Table& table);

  /// Removal of subsumed tuples (the ↓ operator), exposed for reuse.
  static Relation RemoveSubsumed(Relation input);

  /// Duplicate elimination (the δ operator), exposed for reuse.
  static Relation DedupRows(Relation input);

  /// Outer union ⊎ of two relations (schema = union of tagged columns).
  static Relation OuterUnionOf(const Relation& a, const Relation& b);

 private:
  /// The dispatch switch (no tracing); Eval wraps it with span recording
  /// when a trace sink is attached.
  std::shared_ptr<const Relation> EvalNode(const RelExprPtr& expr) const;
  std::shared_ptr<const Relation> EvalTraced(const RelExprPtr& expr) const;

  /// Attaches an arg to the span of the operator node currently being
  /// evaluated (no-op without a sink). Operators call this only after
  /// their child Evals returned — children harvest and clear the pending
  /// buffers for their own spans first.
  void NoteArg(const char* key, int64_t value) const {
    if (trace_ != nullptr) pending_args_.emplace_back(key, value);
  }
  void NoteArg(const char* key, std::string value) const {
    if (trace_ != nullptr) {
      pending_str_args_.emplace_back(key, std::move(value));
    }
  }
  std::shared_ptr<const Relation> EvalScan(const RelExpr& expr) const;
  std::shared_ptr<const Relation> EvalDeltaScan(const RelExpr& expr) const;
  Relation EvalSelect(const RelExpr& expr) const;
  Relation EvalSortMergeJoin(const RelExpr& expr, const Relation& l,
                             const Relation& r,
                             const std::vector<int>& left_keys,
                             const std::vector<int>& right_keys,
                             const ScalarExprPtr& residual_expr) const;
  Relation EvalProject(const RelExpr& expr) const;
  /// Project(Scan(T)) fused: copies only the projected cells of T's live
  /// rows (or of T's override) instead of a full-width copy of T first.
  Relation ProjectScan(const RelExpr& expr) const;
  Relation EvalJoin(const RelExpr& expr) const;
  /// The probe join of `expr` over its evaluated left input, fetching
  /// through `path` (ProbePath's answer for `expr`).
  Relation ProbeJoin(const RelExpr& expr, const Relation& l, int path) const;
  Relation HashJoin(const RelExpr& expr, const Relation& l,
                    const Relation& r) const;
  Relation EvalNullIf(const RelExpr& expr) const;

  const Catalog* catalog_;
  std::unordered_map<std::string, const Relation*> deltas_;
  std::unordered_map<std::string, const Relation*> overrides_;
  TableRelationCache* cache_ = nullptr;
  const std::unordered_set<const RelExpr*>* probe_joins_ = nullptr;
  JoinAlgorithm join_algorithm_ = JoinAlgorithm::kHash;
  obs::TraceContext* trace_ = nullptr;
  /// Args staged by the node currently evaluating (see NoteArg).
  mutable std::vector<std::pair<std::string, int64_t>> pending_args_;
  mutable std::vector<std::pair<std::string, std::string>> pending_str_args_;
};

}  // namespace ojv

#endif  // OJV_EXEC_EVALUATOR_H_

#ifndef OJV_OPT_PLAN_CACHE_H_
#define OJV_OPT_PLAN_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/rel_expr.h"

namespace ojv {
namespace opt {

/// One join step on the main path of a planned delta tree, bottom-up.
struct PlanStep {
  std::string right_table;  // single base table on the right ("" if multi)
  JoinKind join_kind = JoinKind::kInner;
  double fanout = 0;    // estimated output rows per left row
  double est_rows = 0;  // estimated rows after this step
};

/// A planned (possibly reordered) left-deep delta expression plus the
/// estimates that produced it.
struct PlannedDelta {
  RelExprPtr expr;
  std::vector<PlanStep> steps;  // join steps in bottom-up plan order
  /// Per-node output-cardinality estimates (EXPLAIN annotations).
  std::unordered_map<const RelExpr*, double> node_est;
  bool reordered = false;  // false: order identical to the static plan
  std::string order;       // right tables bottom-up, e.g. "S,B"
};

/// Cached plan + feedback state for one (table, op, policy) key.
struct PlanCacheEntry {
  PlannedDelta plan;
  /// Observed fanout EMA per right table (feedback loop); carried across
  /// re-plans so learned selectivities survive.
  std::unordered_map<std::string, double> fanout_ema;
  double planned_delta_rows = 1;  // |Δ| the plan was costed for
  bool dirty = false;             // drift exceeded threshold → re-plan
  std::string source = "planned";  // planned | cache | replan
  int64_t hits = 0;
  int64_t replans = 0;
};

/// Per-maintainer plan cache keyed by (updated table, op kind,
/// constraint-free policy). Same synchronization contract as the
/// maintainer: externally confined to one maintenance op at a time.
class PlanCache {
 public:
  static std::string Key(const std::string& table, bool is_insert,
                         bool constraint_free);

  PlanCacheEntry* Find(const std::string& key);
  const PlanCacheEntry* Find(const std::string& key) const;
  /// Creates or replaces the plan under `key`, preserving any existing
  /// feedback EMA and counters.
  PlanCacheEntry* Put(const std::string& key, PlannedDelta plan,
                      double delta_rows);
  void Clear() { entries_.clear(); }
  size_t size() const { return entries_.size(); }
  const std::unordered_map<std::string, PlanCacheEntry>& entries() const {
    return entries_;
  }

 private:
  std::unordered_map<std::string, PlanCacheEntry> entries_;
};

}  // namespace opt
}  // namespace ojv

#endif  // OJV_OPT_PLAN_CACHE_H_

#ifndef OJV_OPT_PLAN_CACHE_H_
#define OJV_OPT_PLAN_CACHE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "algebra/rel_expr.h"

namespace ojv {
namespace opt {

/// A planned (possibly reordered) left-deep delta expression plus the
/// estimates that produced it.
struct PlannedDelta {
  RelExprPtr expr;
  /// Per-node output-cardinality estimates (EXPLAIN annotations).
  std::unordered_map<const RelExpr*, double> node_est;
  bool reordered = false;  // false: order identical to the static plan
  std::string order;       // join right tables bottom-up, e.g. "S,B"
  /// Join nodes of `expr` to run as index probes instead of hash builds
  /// (Evaluator::set_probe_joins).
  std::unordered_set<const RelExpr*> probe_joins;
};

/// Cached plan and its counters for one (table, op, policy) key.
struct PlanCacheEntry {
  PlannedDelta plan;
  double planned_delta_rows = 1;  // |Δ| the plan was costed for
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
  /// counters.
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

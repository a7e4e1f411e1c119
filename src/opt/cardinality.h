#ifndef OJV_OPT_CARDINALITY_H_
#define OJV_OPT_CARDINALITY_H_

#include <string>
#include <unordered_map>

#include "algebra/rel_expr.h"
#include "opt/stats.h"

namespace ojv {
namespace opt {

/// Textbook cardinality estimation over the delta algebra, driven by the
/// statistics catalog.
///
/// Formulas (System R lineage):
///   scan(T)                 |T| from stats
///   delta scan(T)           |Δ| supplied by the caller (known exactly at
///                           statement time)
///   σ_p(e)                  |e| * sel(p); eq-to-literal 1/ndv, range by
///                           min/max interpolation, default 1/3 per
///                           conjunct
///   e1 ⋈_p e2 (inner)       |e1|*|e2| / max(ndv_l, ndv_r) per equality
///                           conjunct (containment-of-values)
///   e1 ⟕_p e2               max(inner estimate, |e1|) — every left row
///                           survives
///   λ, δ, ↓, π              pass-through (λ never changes counts; δ/↓
///                           only shrink, pessimistic is fine for
///                           ordering)
///
/// Per-table delta cardinalities are injected before estimation.
class CardinalityEstimator {
 public:
  explicit CardinalityEstimator(StatsCatalog* stats) : stats_(stats) {}

  /// Exact cardinality of the pending delta of `table` (rows of the
  /// statement being maintained).
  void SetDeltaRows(const std::string& table, double rows);

  /// Estimated output cardinality of `expr`. Never negative; unknown
  /// tables estimate as 1000 rows (arbitrary but stable).
  double Estimate(const RelExprPtr& expr);

  /// Estimated selectivity in [0,1] of `pred` against the set of tables
  /// below it. Null `pred` is TRUE (1.0).
  double Selectivity(const ScalarExprPtr& pred);

  /// Estimated fanout of joining `left_card` rows (the current prefix)
  /// against `right` with `pred`: output rows per prefix row, before the
  /// outer-join floor. Exposed for the planner's greedy step.
  double JoinFanout(const RelExprPtr& right, const ScalarExprPtr& pred);

  StatsCatalog* stats() { return stats_; }

  static constexpr double kUnknownTableRows = 1000.0;
  static constexpr double kDefaultSelectivity = 1.0 / 3.0;

 private:
  double TableRows(const std::string& table) const;
  /// Distinct estimate for `table.column` clamped to live row count;
  /// falls back to sqrt(rows).
  double Ndv(const ColumnRef& ref) const;
  double ConjunctSelectivity(const ScalarExprPtr& conjunct);

  StatsCatalog* stats_;
  std::unordered_map<std::string, double> delta_rows_;
};

}  // namespace opt
}  // namespace ojv

#endif  // OJV_OPT_CARDINALITY_H_

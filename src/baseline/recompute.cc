#include "baseline/recompute.h"

#include "exec/evaluator.h"

namespace ojv {

Relation RecomputeView(const Catalog& catalog, const ViewDef& view) {
  // The unpruned tree, not WithProjection(): the oracle stays independent
  // of the narrowed expression the maintainers evaluate.
  Evaluator evaluator(&catalog);
  return evaluator.EvalToRelation(RelExpr::Project(view.tree(), view.output()));
}

bool ViewMatchesRecompute(const Catalog& catalog, const ViewDef& view,
                          const MaterializedView& materialized,
                          std::string* diff) {
  return ViewMatchesRecompute(catalog, view, materialized.AsRelation(), diff);
}

bool ViewMatchesRecompute(const Catalog& catalog, const ViewDef& view,
                          const Relation& contents, std::string* diff) {
  Relation expected = RecomputeView(catalog, view);
  return SameBag(expected, contents, diff);
}

}  // namespace ojv

#ifndef OJV_BASELINE_RECOMPUTE_H_
#define OJV_BASELINE_RECOMPUTE_H_

#include <string>

#include "exec/relation.h"
#include "ivm/materialized_view.h"
#include "ivm/view_def.h"

namespace ojv {

/// Recomputes the view contents from scratch (the correctness oracle for
/// every incremental strategy, and the naive maintenance baseline). It
/// evaluates Project(view.tree(), view.output()) over full-width scans,
/// so it also checks ViewDef::WithProjection's narrowed scans.
Relation RecomputeView(const Catalog& catalog, const ViewDef& view);

/// True when the materialized view's contents equal a from-scratch
/// recomputation; fills *diff with a description otherwise.
bool ViewMatchesRecompute(const Catalog& catalog, const ViewDef& view,
                          const MaterializedView& materialized,
                          std::string* diff);

/// Same oracle over already-materialized contents (e.g. a pinned
/// ViewSnapshot's relation).
bool ViewMatchesRecompute(const Catalog& catalog, const ViewDef& view,
                          const Relation& contents, std::string* diff);

}  // namespace ojv

#endif  // OJV_BASELINE_RECOMPUTE_H_

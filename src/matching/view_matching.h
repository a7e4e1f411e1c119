#ifndef OJV_MATCHING_VIEW_MATCHING_H_
#define OJV_MATCHING_VIEW_MATCHING_H_

#include <optional>
#include <string>

#include "ivm/database.h"
#include "ivm/materialized_view.h"
#include "ivm/view_def.h"

namespace ojv {

/// View matching for SPOJ views — the companion problem to maintenance
/// (paper §1; the full algorithm is Larson & Zhou, VLDB 2005 [6]).
/// Given a query and a materialized view, decide whether the query can
/// be answered from the view alone and construct the compensation.
///
/// Both query and view are compared through their join-disjunctive
/// normal forms. The query matches when:
///
///  1. it references the same table set as the view;
///  2. every query term has a view term with the same source whose
///     predicate is implied by the query term's (conjunct-for-conjunct,
///     with numeric range implication, e.g. `p < 1500 ⇒ p < 2000`);
///  3. view terms absent from the query can be dropped by null-pattern
///     rejection, which is sound only if no *retained* term's source is
///     a strict subset of a dropped term's source (otherwise killing the
///     wider rows would have to resurrect subsumed narrower tuples —
///     the general case of [6] that needs null-if compensation; we
///     reject it instead of answering incorrectly);
///  4. compensation conjuncts (query predicates beyond the view's)
///     reference only tables present in *every* retained term, so that
///     selection distributes over the minimum union of the retained
///     terms;
///  5. the view outputs every column the query's output and the
///     compensation need.
///
/// The supported class covers the everyday cases: answering inner-join
/// queries from outer-join views, left-outer queries from full-outer
/// views, and range-restricted variants of the view's predicates.
struct MatchResult {
  bool matched = false;
  std::string reason;  // when !matched: why
  /// Compensation over the view's contents, bound as DeltaScan("#view"):
  /// a selection (pattern acceptance ∧ extra conjuncts) under the
  /// query's projection.
  RelExprPtr rewrite;
};

/// Attempts to rewrite `query` over `view`. Both must validate against
/// `catalog`. Pure analysis: no data is touched.
MatchResult MatchView(const ViewDef& query, const ViewDef& view,
                      const Catalog& catalog);

/// Convenience: runs MatchView and, on success, evaluates the rewrite
/// against the materialized contents. Returns std::nullopt when the
/// query cannot be answered from the view.
std::optional<Relation> AnswerFromView(const ViewDef& query,
                                       const ViewDef& view,
                                       const MaterializedView& contents,
                                       const Catalog& catalog);

/// Scans the database's registered views for one that can answer the
/// query; returns the first match's answer (and the view's name through
/// *matched_view if non-null), or std::nullopt when no view qualifies.
/// The answer reads the view through Database::ReadView, so it sees
/// every base change so far, the caller's open transaction included.
std::optional<Relation> AnswerFromDatabase(const ViewDef& query, Database* db,
                                           std::string* matched_view);

}  // namespace ojv

#endif  // OJV_MATCHING_VIEW_MATCHING_H_

#ifndef OJV_SQL_PARSER_H_
#define OJV_SQL_PARSER_H_

#include <optional>
#include <string>
#include <vector>

#include "ivm/aggregate_view.h"
#include "ivm/database.h"
#include "ivm/view_def.h"

namespace ojv {
namespace sql {

/// Parsed CREATE VIEW statement: either a plain SPOJ view or an
/// aggregation view (when GROUP BY is present).
struct ParsedView {
  ViewDef view;                        // the SPOJ part
  bool is_aggregate = false;
  std::vector<ColumnRef> group_by;     // when is_aggregate
  std::vector<AggregateSpec> aggregates;
};

/// Parses the view-definition dialect used throughout the paper:
///
///   CREATE VIEW oj_view AS
///   SELECT p_partkey, p_name, o_orderkey, l_orderkey, l_linenumber
///   FROM part FULL OUTER JOIN
///        (orders LEFT OUTER JOIN lineitem ON l_orderkey = o_orderkey)
///        ON p_partkey = l_partkey
///
/// Supported:
///  - SELECT column lists (qualified `t.c` or unqualified when unique
///    across the referenced tables) or `SELECT *`;
///  - FROM with [INNER] JOIN / LEFT|RIGHT|FULL [OUTER] JOIN chains and
///    parenthesized join groups;
///  - derived tables `(SELECT * FROM t WHERE ...)` — SELECT * only —
///    which become selections in the view tree (the paper's σp(O));
///  - ON / WHERE conjunctions of comparisons (= <> < <= > >=) between
///    columns and literals, plus BETWEEN;
///  - numeric, 'string', and DATE 'YYYY-MM-DD' literals;
///  - GROUP BY with COUNT(*), COUNT(col), SUM(col) [AS name] — parsed
///    into an aggregation-view description.
///
/// The unique-key columns of every referenced table are appended to the
/// output automatically if the SELECT list omits them (the paper's §2
/// restriction that views output a key; for aggregates the base view
/// needs them internally).
///
/// Returns std::nullopt and fills *error on any lexical, syntactic, or
/// resolution failure.
std::optional<ParsedView> ParseCreateView(const std::string& sql,
                                          const Catalog& catalog,
                                          std::string* error);

/// Parses `sql` against the database's catalog and registers the view
/// (row-level or aggregated) for automatic maintenance. Returns false
/// and fills *error on failure, including when the view's name is
/// already in use (the existing view is left as it was).
bool ExecuteCreateView(const std::string& sql, Database* db,
                       std::string* error);

}  // namespace sql
}  // namespace ojv

#endif  // OJV_SQL_PARSER_H_

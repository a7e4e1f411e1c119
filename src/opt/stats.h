#ifndef OJV_OPT_STATS_H_
#define OJV_OPT_STATS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "catalog/catalog.h"

namespace ojv {
namespace opt {

/// K-minimum-values distinct-count sketch. Feed it the hash of every
/// inserted value; the k smallest distinct hashes estimate the distinct
/// count as (k-1)/R_k where R_k is the k-th minimum normalized to [0,1)
/// (Bar-Yossef et al.). While fewer than k distinct hashes were seen the
/// estimate is exact. Insert-only: deletions are handled one level up by
/// staleness tracking (see StatsCatalog).
class KmvSketch {
 public:
  explicit KmvSketch(int k = kDefaultK);

  void Insert(uint64_t hash);
  double Estimate() const;
  bool saturated() const { return static_cast<int>(mins_.size()) >= k_; }

  static constexpr int kDefaultK = 128;

 private:
  int k_;
  std::vector<uint64_t> mins_;  // sorted ascending, distinct
};

/// Per-column statistics: null count, numeric min/max (int64/date/double
/// columns only), and a KMV distinct sketch.
struct ColumnStats {
  int64_t null_count = 0;
  bool tracked = true;     // sketched at all (see RestrictColumns)
  bool has_range = false;  // min/max valid (numeric column, >=1 non-null)
  double min = 0;
  double max = 0;
  KmvSketch distinct;

  /// Distinct-count estimate clamped to [1, row_count].
  double DistinctEstimate(int64_t row_count) const;
};

/// Statistics for one base table, columns aligned with the table schema.
struct TableStats {
  int64_t row_count = 0;
  std::vector<ColumnStats> columns;
  std::unordered_map<std::string, int> column_index;

  const ColumnStats* Column(const std::string& name) const;
  /// Distinct estimate for a named column; falls back to `fallback`
  /// when the column is unknown.
  double DistinctOf(const std::string& name, double fallback) const;
};

/// Lightweight statistics catalog: per-table row counts and per-column
/// sketches, built lazily by a full scan and maintained incrementally as
/// base deltas apply.
///
/// Synchronization contract matches ViewMaintainer: externally confined
/// to one maintenance operation at a time.
///
/// Freshness is tracked against Table::version() (bumped once per
/// successful insert or delete): a full rebuild records the version, and
/// each incremental OnInsert/OnDelete advances the expectation by the
/// batch size. If the table moved in a way the catalog did not see (an
/// out-of-band update, or a batch reported twice), the entry is marked
/// stale and rebuilt at the next Get. Deletions cannot be removed from
/// the insert-only sketches, so an entry also goes stale once deletions
/// since the last rebuild exceed ~30% of the rows it was built from.
class StatsCatalog {
 public:
  explicit StatsCatalog(const Catalog* catalog) : catalog_(catalog) {}

  /// The catalog whose tables this describes.
  const Catalog* catalog() const { return catalog_; }

  /// Statistics for `table`, rebuilding if absent or stale. Returns null
  /// for unknown tables. The pointer is valid until the next non-const
  /// call.
  const TableStats* Get(const std::string& table);

  /// Accounts an applied base-table insert/delete batch. `rows` must be
  /// the full rows (for deletes: the deleted rows, as the maintenance
  /// entry points already receive them). A batch whose version range was
  /// already accounted (e.g. several maintainers reporting the same
  /// statement) is skipped via the version check.
  void OnInsert(const std::string& table, const std::vector<Row>& rows);
  void OnDelete(const std::string& table, const std::vector<Row>& rows);

  /// Accounts an UPDATE modeled as delete(old_rows) + insert(new_rows)
  /// applied back-to-back (the maintainer only observes the pair after
  /// both halves hit the table, so the per-batch version windows of
  /// OnInsert/OnDelete cannot line up individually).
  void OnUpdate(const std::string& table, const std::vector<Row>& old_rows,
                const std::vector<Row>& new_rows);

  /// Limits sketch/range maintenance for `table` to `columns` (union of
  /// all calls). Row counts stay exact for every table; untracked
  /// columns report the estimator fallback instead of a sketch. The
  /// maintainer restricts each table to the columns its view predicates
  /// reference, which is all the estimator ever reads — per-delta-row
  /// bookkeeping then costs O(predicate columns), not O(schema width).
  void RestrictColumns(const std::string& table,
                       const std::vector<std::string>& columns);

  void Invalidate(const std::string& table);
  void InvalidateAll();

  // --- test hooks ---
  int64_t rebuild_count() const { return rebuild_count_; }
  bool IsFresh(const std::string& table) const;

 private:
  struct Entry {
    TableStats stats;
    uint64_t expected_version = 0;
    int64_t rows_at_rebuild = 0;
    int64_t deleted_since_rebuild = 0;
    bool stale = false;
  };

  void Rebuild(const std::string& name, const Table& table, Entry* entry);
  static void AddRow(const Table& table, const Row& row, TableStats* stats);

  const Catalog* catalog_;
  std::unordered_map<std::string, Entry> entries_;
  std::unordered_map<std::string, std::unordered_set<std::string>> interest_;
  int64_t rebuild_count_ = 0;
};

}  // namespace opt
}  // namespace ojv

#endif  // OJV_OPT_STATS_H_

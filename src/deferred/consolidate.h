#ifndef OJV_DEFERRED_CONSOLIDATE_H_
#define OJV_DEFERRED_CONSOLIDATE_H_

#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "deferred/delta_log.h"

namespace ojv {
namespace deferred {

/// Net effect of a pending batch on one base table, keyed by the table's
/// unique key:
///   - a key inserted then deleted within the batch cancels entirely;
///   - a key deleted then reinserted folds into an update pair (the
///     original pre-image in `deletes`, the final post-image in
///     `inserts`) — or cancels too when the reinserted row is identical;
///   - surviving inserts/deletes keep the batch's final image.
/// Feeding the maintainers the net delta instead of the raw entry stream
/// is where deferred batching wins: the paper's left-deep primary-delta
/// pipeline (§4) scales with |ΔT|.
struct TableDelta {
  std::string table;
  /// Sequence number of the first raw entry; deltas are replayed in this
  /// order so the refresh walks tables as the statements first did.
  uint64_t first_seq = 0;
  std::vector<Row> deletes;  // net pre-images to remove
  std::vector<Row> inserts;  // net post-images to add
  int64_t raw_entries = 0;
  /// Keys carrying both a pre- and a post-image. Any such pair forces
  /// the constraint-free plan set (§6 caveat 1): between its delete and
  /// its reinsert a foreign key need not hold.
  int64_t update_pairs = 0;
  int64_t cancelled = 0;  // raw entries removed by consolidation
};

/// Consolidates pending log entries (per table, in sequence order — the
/// shape DeltaLog::PendingFor returns) into net per-table deltas, ordered
/// by first pending entry. Applying each delta's `deletes` then `inserts`
/// to the batch's pre-state reproduces its post-state exactly.
std::vector<TableDelta> Consolidate(
    const std::map<std::string, std::vector<DeltaEntry>>& pending,
    const Catalog& catalog);

}  // namespace deferred
}  // namespace ojv

#endif  // OJV_DEFERRED_CONSOLIDATE_H_

#ifndef OJV_PERFBENCH_WORKLOAD_H_
#define OJV_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/rng.h"
#include "ivm/view_def.h"
#include "tpch/dbgen.h"

namespace perfbench {

using ojv::Row;

enum class Workload { kOltpImmediate, kDeferredBatch, kServeFreshRead };

/// The workload's views: V3 and oj_view (oltp_immediate,
/// serve_fresh_read) or V3 and V2 (deferred_batch).
std::vector<ojv::ViewDef> WorkloadViews(Workload workload,
                                        const ojv::Catalog& catalog);
/// True when the workload's views are kOnDemand rather than kImmediate.
inline bool Deferred(Workload workload) {
  return workload == Workload::kDeferredBatch;
}

enum class OpType { kInsert, kDelete, kUpdate, kRefresh, kRead };
inline constexpr int kNumOpTypes = 5;
const char* OpTypeName(OpType type);

/// One client operation. Statements carry their table and rows (insert
/// rows, delete keys, or update keys plus full new rows); a refresh names
/// one view, a read names every view it reads.
struct Op {
  OpType type = OpType::kInsert;
  /// Statement kind within the op type ("lineitem_insert", "rf2_orders",
  /// ...), for the per-kind sample counts.
  const char* kind = "";
  std::string table;
  std::vector<Row> rows;
  std::vector<Row> new_rows;
  std::vector<std::string> views;
};

/// Seeded, closed-loop op generator. All of its state lives here: the
/// keys of the live rows it may delete or update are kept in lists, so
/// picking a key never scans a table. The one read of the database is
/// the current image of a row about to be updated (an UPDATE must name
/// every column). Every insert is balanced by a delete of a row the
/// stream itself created, so table and view sizes stay flat.
class Stream {
 public:
  /// `catalog` must hold the freshly populated TPC-H database.
  Stream(Workload workload, uint64_t seed, const ojv::tpch::Dbgen* dbgen,
         const ojv::Catalog& catalog);

  /// The next op. `catalog` is the database the op will run against,
  /// read only for update pre-images.
  Op Next(const ojv::Catalog& catalog);

  /// The first warmup_ops() ops warm the pool of deletable rows and the
  /// caches; the benchmark runs them untimed.
  int64_t warmup_ops() const { return warmup_ops_; }

  /// FNV-1a digest of every op generated so far.
  uint64_t digest() const { return digest_; }

 private:
  enum class Kind {
    kLineitemInsert, kLineitemDelete, kLineitemUpdate, kCustomerUpdate,
    kRf1Orders, kRf1Lineitems, kRf2Lineitems, kRf2Orders,
    kNewCustomer, kDeleteCustomer, kNewParts, kDeleteParts,
    kRefreshV3, kRefreshV2, kRead,
  };
  Op Make(Kind kind, const ojv::Catalog& catalog);
  void Digest(const Op& op);

  struct OrderSlot {
    int64_t orderkey;
    int64_t orderdate;
    int64_t next_line;
  };
  struct Rf1Batch {
    std::vector<Row> orders;
    std::vector<Row> lineitem_keys;
  };

  Workload workload_;
  const ojv::tpch::Dbgen* dbgen_;
  ojv::Rng rng_;
  std::vector<Kind> cycle_;
  size_t pos_ = 0;
  /// One-shot ops (warm-up inserts, due refreshes) served before the
  /// cycle resumes.
  std::vector<Kind> queued_;
  int64_t warmup_ops_ = 0;
  int64_t statements_ = 0;

  std::vector<OrderSlot> initial_orders_;
  std::vector<Row> initial_lineitem_keys_;
  /// Keys of the live lineitems inserted by kLineitemInsert, oldest
  /// first; deletes pick among all but the newest kDeleteLag of them.
  std::vector<Row> inserted_lineitems_;
  std::vector<Rf1Batch> rf1_batches_;  // oldest first
  std::vector<Row> previous_update_keys_;
  bool reuse_update_keys_ = false;
  std::vector<int64_t> new_customers_;
  std::vector<int64_t> new_parts_;
  int64_t next_part_key_;
  int64_t next_customer_key_;
  int64_t next_order_ordinal_;
  uint64_t digest_ = 1469598103934665603ULL;
};

}  // namespace perfbench

#endif  // OJV_PERFBENCH_WORKLOAD_H_

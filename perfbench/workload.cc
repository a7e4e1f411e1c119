#include "workload.h"

#include <algorithm>
#include <unordered_map>

#include "common/check.h"
#include "tpch/views.h"

namespace perfbench {
namespace {

// Lineitem inserts that open the write workloads' warm-up, so deletes can
// pick rows older than kDeleteLag instead of the rows just inserted.
constexpr int kWarmupInserts = 10;
constexpr size_t kDeleteLag = 50;

}  // namespace

std::vector<ojv::ViewDef> WorkloadViews(Workload workload,
                                        const ojv::Catalog& catalog) {
  std::vector<ojv::ViewDef> views;
  views.push_back(ojv::tpch::MakeV3(catalog));
  views.push_back(Deferred(workload) ? ojv::tpch::MakeV2(catalog)
                                     : ojv::tpch::MakeOjView(catalog));
  return views;
}

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kInsert:
      return "insert";
    case OpType::kDelete:
      return "delete";
    case OpType::kUpdate:
      return "update";
    case OpType::kRefresh:
      return "refresh";
    case OpType::kRead:
      return "read";
  }
  return "?";
}

Stream::Stream(Workload workload, uint64_t seed, const ojv::tpch::Dbgen* dbgen,
               const ojv::Catalog& catalog)
    : workload_(workload),
      dbgen_(dbgen),
      rng_(seed),
      next_part_key_(dbgen->num_part() + 1),
      next_customer_key_(dbgen->num_customer() + 1),
      next_order_ordinal_(dbgen->num_orders() + 1) {
  using enum Kind;
  if (workload == Workload::kServeFreshRead) {
    // One new part, then one fresh read of both views; after every ten
    // parts, one statement deletes them again. The first cycle is the
    // warm-up.
    for (int i = 0; i < 10; ++i) {
      cycle_.push_back(kNewParts);
      cycle_.push_back(kRead);
    }
    cycle_.push_back(kDeleteParts);
    cycle_.push_back(kRead);
    warmup_ops_ = static_cast<int64_t>(cycle_.size());
  } else {
    // A 50-statement cycle; deferred_batch's refresh every 100
    // statements then always sees the same batch mix. Within each op
    // type one kind dominates, so the medians sit in one cost mode:
    //   inserts 19: 15 lineitem (79%), RF1 orders, RF1 lineitems,
    //               customer, part
    //   deletes 19: 15 lineitem (79%), RF2 lineitems, RF2 orders,
    //               customer, part
    //   updates 12: 11 lineitem, 1 customer
    // Every insert is matched by a delete of the rows it created, and
    // RF2 deletes the RF1 batch of the same cycle.
    const Kind li = kLineitemInsert, ld = kLineitemDelete,
               lu = kLineitemUpdate;
    cycle_ = {li, lu, ld, li, ld, li, lu, ld, kRf1Orders, kRf1Lineitems,
              li, ld, lu, li, ld, kNewCustomer, li, lu, ld, li,
              ld, lu, li, ld, kRf2Lineitems, kRf2Orders, li, lu, ld, kNewParts,
              li, kCustomerUpdate, ld, li, lu, ld, kDeleteCustomer, li, ld, lu,
              li, ld, kDeleteParts, li, lu, ld, li, lu, ld, lu};
    OJV_CHECK(cycle_.size() == 50, "write cycle length");
    // Warm-up: the pool inserts, then one cycle, or for deferred_batch
    // the first two refresh intervals with their three refreshes (the
    // first refreshes still re-plan and run slower).
    queued_.assign(kWarmupInserts, kLineitemInsert);
    warmup_ops_ = workload == Workload::kDeferredBatch
                      ? 200 + 3
                      : kWarmupInserts + static_cast<int64_t>(cycle_.size());
  }

  const ojv::Table* orders = catalog.GetTable("orders");
  std::unordered_map<int64_t, size_t> slot_of;
  slot_of.reserve(static_cast<size_t>(orders->size()));
  initial_orders_.reserve(static_cast<size_t>(orders->size()));
  orders->ForEach([&](const Row& row) {
    slot_of[row[0].int64()] = initial_orders_.size();
    initial_orders_.push_back({row[0].int64(), row[4].int64(), 1});
  });
  const ojv::Table* lineitem = catalog.GetTable("lineitem");
  initial_lineitem_keys_.reserve(static_cast<size_t>(lineitem->size()));
  lineitem->ForEach([&](const Row& row) {
    OrderSlot& slot = initial_orders_[slot_of.at(row[0].int64())];
    slot.next_line = std::max(slot.next_line, row[3].int64() + 1);
    initial_lineitem_keys_.push_back(Row{row[0], row[3]});
  });
}

Op Stream::Next(const ojv::Catalog& catalog) {
  Kind kind;
  if (!queued_.empty()) {
    kind = queued_.front();
    queued_.erase(queued_.begin());
  } else {
    kind = cycle_[pos_];
    pos_ = (pos_ + 1) % cycle_.size();
  }
  Op op = Make(kind, catalog);
  if (op.type != OpType::kRefresh && op.type != OpType::kRead) {
    ++statements_;
    // deferred_batch refreshes v3 after every 100 statements and v2
    // after every 200: two thirds of the refresh samples are v3's, so
    // the refresh median sits in one view's cost mode.
    if (workload_ == Workload::kDeferredBatch && statements_ % 100 == 0) {
      queued_.push_back(Kind::kRefreshV3);
      if (statements_ % 200 == 0) queued_.push_back(Kind::kRefreshV2);
    }
  }
  Digest(op);
  return op;
}

Op Stream::Make(Kind kind, const ojv::Catalog& catalog) {
  auto pick = [this](size_t n) {
    return static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(n) - 1));
  };
  auto int_keys = [](const std::vector<int64_t>& keys) {
    std::vector<Row> rows;
    for (int64_t key : keys) rows.push_back(Row{ojv::Value::Int64(key)});
    return rows;
  };
  Op op;
  switch (kind) {
    case Kind::kLineitemInsert:
      op = {OpType::kInsert, "lineitem_insert", "lineitem", {}, {}, {}};
      for (int i = 0; i < 10; ++i) {
        OrderSlot& slot = initial_orders_[pick(initial_orders_.size())];
        Row row = dbgen_->MakeLineitemRow(slot.orderkey, slot.next_line++,
                                          slot.orderdate, &rng_);
        inserted_lineitems_.push_back(Row{row[0], row[3]});
        op.rows.push_back(std::move(row));
      }
      break;
    case Kind::kLineitemDelete: {
      op = {OpType::kDelete, "lineitem_delete", "lineitem", {}, {}, {}};
      for (int i = 0; i < 10 && !inserted_lineitems_.empty(); ++i) {
        const size_t n = inserted_lineitems_.size();
        const size_t at = pick(n > kDeleteLag ? n - kDeleteLag : n);
        op.rows.push_back(std::move(inserted_lineitems_[at]));
        inserted_lineitems_.erase(inserted_lineitems_.begin() +
                                  static_cast<std::ptrdiff_t>(at));
      }
      break;
    }
    case Kind::kLineitemUpdate: {
      op = {OpType::kUpdate, "lineitem_update", "lineitem", {}, {}, {}};
      // deferred_batch re-updates the previous update's keys every other
      // time, so a refresh batch folds repeated update pairs per key.
      if (workload_ == Workload::kDeferredBatch && reuse_update_keys_) {
        op.rows = previous_update_keys_;
      }
      while (op.rows.size() < 10) {
        const Row& key = initial_lineitem_keys_[pick(
            initial_lineitem_keys_.size())];
        if (std::find(op.rows.begin(), op.rows.end(), key) == op.rows.end()) {
          op.rows.push_back(key);
        }
      }
      reuse_update_keys_ = !reuse_update_keys_;
      previous_update_keys_ = op.rows;
      const ojv::Table* lineitem = catalog.GetTable("lineitem");
      for (const Row& key : op.rows) {
        const Row* current = lineitem->FindByKey(key);
        OJV_CHECK(current != nullptr, "update target missing");
        Row updated = *current;
        updated[4] = ojv::Value::Float64(
            static_cast<double>(rng_.Uniform(1, 50)));  // l_quantity
        op.new_rows.push_back(std::move(updated));
      }
      break;
    }
    case Kind::kCustomerUpdate: {
      op = {OpType::kUpdate, "customer_update", "customer", {}, {}, {}};
      while (op.rows.size() < 5) {
        Row key{ojv::Value::Int64(
            1 + static_cast<int64_t>(pick(static_cast<size_t>(
                    dbgen_->num_customer()))))};
        if (std::find(op.rows.begin(), op.rows.end(), key) == op.rows.end()) {
          op.rows.push_back(std::move(key));
        }
      }
      const ojv::Table* customer = catalog.GetTable("customer");
      for (const Row& key : op.rows) {
        const Row* current = customer->FindByKey(key);
        OJV_CHECK(current != nullptr, "update target missing");
        Row updated = *current;
        updated[5] = ojv::Value::Float64(
            static_cast<double>(rng_.Uniform(-99999, 999999)) /
            100.0);  // c_acctbal
        op.new_rows.push_back(std::move(updated));
      }
      break;
    }
    case Kind::kRf1Orders: {
      op = {OpType::kInsert, "rf1_orders", "orders", {}, {}, {}};
      const ojv::Table* orders = catalog.GetTable("orders");
      while (op.rows.size() < 5) {
        // Gap keys of the sparse order-key scheme: dbgen only fills
        // offsets 0..7 of each 32-key block.
        const int64_t ordinal = next_order_ordinal_++;
        const int64_t key =
            (ordinal % 100000) * 32 + 8 + (ordinal / 100000) % 24 + 1;
        if (orders->FindByKey(Row{ojv::Value::Int64(key)}) != nullptr) {
          continue;
        }
        op.rows.push_back(dbgen_->MakeOrderRow(
            key, dbgen_->RandomOrderingCustomer(&rng_), &rng_));
      }
      rf1_batches_.push_back({op.rows, {}});
      break;
    }
    case Kind::kRf1Lineitems: {
      op = {OpType::kInsert, "rf1_lineitems", "lineitem", {}, {}, {}};
      Rf1Batch& batch = rf1_batches_.back();
      for (const Row& order : batch.orders) {
        for (int64_t line = 1; line <= 3; ++line) {
          Row row = dbgen_->MakeLineitemRow(order[0].int64(), line,
                                            order[4].int64(), &rng_);
          batch.lineitem_keys.push_back(Row{row[0], row[3]});
          op.rows.push_back(std::move(row));
        }
      }
      break;
    }
    case Kind::kRf2Lineitems:
      op = {OpType::kDelete, "rf2_lineitems", "lineitem",
            rf1_batches_.front().lineitem_keys, {}, {}};
      break;
    case Kind::kRf2Orders:
      op = {OpType::kDelete, "rf2_orders", "orders", {}, {}, {}};
      for (const Row& order : rf1_batches_.front().orders) {
        op.rows.push_back(Row{order[0]});
      }
      rf1_batches_.erase(rf1_batches_.begin());
      break;
    case Kind::kNewCustomer:
      op = {OpType::kInsert, "new_customer", "customer", {}, {}, {}};
      new_customers_.push_back(next_customer_key_);
      op.rows.push_back(dbgen_->MakeCustomerRow(next_customer_key_++, &rng_));
      break;
    case Kind::kDeleteCustomer:
      op = {OpType::kDelete, "customer_delete", "customer",
            int_keys(new_customers_), {}, {}};
      new_customers_.clear();
      break;
    case Kind::kNewParts:
      op = {OpType::kInsert, "new_part", "part", {}, {}, {}};
      new_parts_.push_back(next_part_key_);
      op.rows.push_back(dbgen_->MakePartRow(next_part_key_++, &rng_));
      break;
    case Kind::kDeleteParts:
      op = {OpType::kDelete, "part_delete", "part", int_keys(new_parts_), {},
            {}};
      new_parts_.clear();
      break;
    case Kind::kRefreshV3:
      op = {OpType::kRefresh, "refresh_v3", "", {}, {}, {"v3"}};
      break;
    case Kind::kRefreshV2:
      op = {OpType::kRefresh, "refresh_v2", "", {}, {}, {"v2"}};
      break;
    case Kind::kRead:
      op = {OpType::kRead, "fresh_read", "", {}, {}, {"v3", "oj_view"}};
      break;
  }
  return op;
}

void Stream::Digest(const Op& op) {
  auto mix = [this](const std::string& s) {
    for (unsigned char c : s) {
      digest_ ^= c;
      digest_ *= 1099511628211ULL;
    }
    digest_ ^= 0xff;
    digest_ *= 1099511628211ULL;
  };
  mix(op.kind);
  mix(op.table);
  for (const std::vector<Row>* rows : {&op.rows, &op.new_rows}) {
    for (const Row& row : *rows) {
      for (const ojv::Value& v : row) mix(v.ToString());
    }
  }
  for (const std::string& view : op.views) mix(view);
}

}  // namespace perfbench

// Plan cache: key construction, counters preserved across Put, the
// maintainer-level cache/replan/invalidate lifecycle, and plan stability
// across batches whose |Δ| stays within kReplanDeltaLog2.

#include "opt/plan_cache.h"

#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "ivm/maintainer.h"
#include "ivm/view_def.h"
#include "obs/trace.h"

namespace ojv {
namespace opt {
namespace {

TEST(PlanCacheTest, KeySeparatesTableOpAndPolicy) {
  EXPECT_EQ(PlanCache::Key("T", true, false), "T|ins|main");
  EXPECT_EQ(PlanCache::Key("T", false, false), "T|del|main");
  EXPECT_EQ(PlanCache::Key("T", true, true), "T|ins|cf");
  EXPECT_NE(PlanCache::Key("T", true, false), PlanCache::Key("U", true, false));
}

TEST(PlanCacheTest, PutPreservesCounters) {
  PlanCache cache;
  PlannedDelta plan;
  plan.order = "A,B";
  PlanCacheEntry* entry = cache.Put("k", std::move(plan), 100);
  entry->hits = 7;
  entry->replans = 2;

  PlannedDelta replanned;
  replanned.order = "B,A";
  PlanCacheEntry* again = cache.Put("k", std::move(replanned), 800);
  EXPECT_EQ(again, entry);
  EXPECT_EQ(again->plan.order, "B,A");
  EXPECT_EQ(again->hits, 7);
  EXPECT_EQ(again->replans, 2);
  EXPECT_DOUBLE_EQ(again->planned_delta_rows, 800.0);
  EXPECT_EQ(cache.size(), 1u);

  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.Find("k"), nullptr);
}

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

class MaintainerPlanCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_.CreateTable(
        "D",
        Schema({ColumnDef{"d_id", ValueType::kInt64, false},
                ColumnDef{"d_b", ValueType::kInt64, true}}),
        {"d_id"});
    catalog_.CreateTable(
        "B",
        Schema({ColumnDef{"b_id", ValueType::kInt64, false},
                ColumnDef{"b_v", ValueType::kInt64, true}}),
        {"b_id"});
    Table* d = catalog_.GetTable("D");
    for (int64_t i = 0; i < 200; ++i) {
      d->Insert(Row{Value::Int64(i), Value::Int64(i % 50)});
    }
    Table* b = catalog_.GetTable("B");
    for (int64_t i = 0; i < 50; ++i) {
      b->Insert(Row{Value::Int64(i), Value::Int64(i)});
    }
    view_ = std::make_unique<ViewDef>(
        "v",
        RelExpr::Join(JoinKind::kLeftOuter, RelExpr::Scan("D"),
                      RelExpr::Scan("B"), Eq("D", "d_b", "B", "b_id")),
        std::vector<ColumnRef>{
            {"D", "d_id"}, {"D", "d_b"}, {"B", "b_id"}, {"B", "b_v"}},
        catalog_);
  }

  std::vector<Row> Fresh(int64_t n) {
    std::vector<Row> rows;
    for (int64_t i = 0; i < n; ++i) {
      rows.push_back(Row{Value::Int64(next_key_++), Value::Int64(i % 50)});
    }
    return rows;
  }

  Catalog catalog_;
  std::unique_ptr<ViewDef> view_;
  int64_t next_key_ = 10000;
};

TEST_F(MaintainerPlanCacheTest, CachesPlanAndCountsHits) {
  ViewMaintainer maintainer(&catalog_, *view_, MaintenanceOptions());
  maintainer.InitializeView();
  Table* d = catalog_.GetTable("D");

  maintainer.OnInsert("D", ApplyBaseInsert(d, Fresh(8)));
  const PlanCacheEntry* entry =
      maintainer.plan_entry("D", true, PlanPolicy::kDefault);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->source, "planned");
  EXPECT_EQ(entry->hits, 0);

  maintainer.OnInsert("D", ApplyBaseInsert(d, Fresh(8)));
  entry = maintainer.plan_entry("D", true, PlanPolicy::kDefault);
  EXPECT_EQ(entry->source, "cache");
  EXPECT_EQ(entry->hits, 1);

  // Deletes get their own cache slot.
  EXPECT_EQ(maintainer.plan_entry("D", false, PlanPolicy::kDefault), nullptr);
}

TEST_F(MaintainerPlanCacheTest, ReplansWhenDeltaSizeShifts) {
  ViewMaintainer maintainer(&catalog_, *view_, MaintenanceOptions());
  maintainer.InitializeView();
  Table* d = catalog_.GetTable("D");

  maintainer.OnInsert("D", ApplyBaseInsert(d, Fresh(4)));
  // 4 -> 512 rows is a 7-doubling shift, past kReplanDeltaLog2 = 3.
  maintainer.OnInsert("D", ApplyBaseInsert(d, Fresh(512)));
  const PlanCacheEntry* entry =
      maintainer.plan_entry("D", true, PlanPolicy::kDefault);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->source, "replan");
  EXPECT_EQ(entry->replans, 1);
  EXPECT_DOUBLE_EQ(entry->planned_delta_rows, 512.0);
}

TEST_F(MaintainerPlanCacheTest, InvalidatePlansDropsCacheAndStats) {
  ViewMaintainer maintainer(&catalog_, *view_, MaintenanceOptions());
  maintainer.InitializeView();
  Table* d = catalog_.GetTable("D");

  maintainer.OnInsert("D", ApplyBaseInsert(d, Fresh(8)));
  ASSERT_NE(maintainer.plan_entry("D", true, PlanPolicy::kDefault), nullptr);
  ASSERT_NE(maintainer.stats_catalog(), nullptr);
  int64_t rebuilds_before = maintainer.stats_catalog()->rebuild_count();

  maintainer.InvalidatePlans();
  EXPECT_EQ(maintainer.plan_entry("D", true, PlanPolicy::kDefault), nullptr);
  EXPECT_EQ(maintainer.plan_cache().size(), 0u);
  EXPECT_FALSE(maintainer.stats_catalog()->IsFresh("D"));

  // The next operation re-plans from rebuilt statistics.
  maintainer.OnInsert("D", ApplyBaseInsert(d, Fresh(8)));
  const PlanCacheEntry* entry =
      maintainer.plan_entry("D", true, PlanPolicy::kDefault);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->source, "planned");
  EXPECT_GT(maintainer.stats_catalog()->rebuild_count(), rebuilds_before);
}

TEST_F(MaintainerPlanCacheTest, TraceDoesNotChangePlanning) {
  obs::TraceContext trace;
  MaintenanceOptions traced_options;
  traced_options.trace = &trace;
  ViewMaintainer traced(&catalog_, *view_, traced_options);
  ViewMaintainer untraced(&catalog_, *view_, MaintenanceOptions());
  traced.InitializeView();
  untraced.InitializeView();
  Table* d = catalog_.GetTable("D");

  // Batch sizes that shift |Δ| past kReplanDeltaLog2 both ways; each
  // batch is half deleted again.
  for (int64_t n : {4, 8, 512, 3, 64}) {
    std::vector<Row> inserted = ApplyBaseInsert(d, Fresh(n));
    traced.OnInsert("D", inserted);
    untraced.OnInsert("D", inserted);
    std::vector<Row> keys;
    for (size_t i = 0; i < inserted.size() / 2; ++i) {
      keys.push_back(Row{inserted[i][0]});
    }
    std::vector<Row> deleted = ApplyBaseDelete(d, keys);
    traced.OnDelete("D", deleted);
    untraced.OnDelete("D", deleted);
  }

  const PlanCacheEntry* insert_entry =
      untraced.plan_entry("D", true, PlanPolicy::kDefault);
  ASSERT_NE(insert_entry, nullptr);
  EXPECT_GT(insert_entry->replans, 0);
  ASSERT_EQ(traced.plan_cache().size(), untraced.plan_cache().size());
  for (const auto& [key, entry] : traced.plan_cache().entries()) {
    const PlanCacheEntry* other = untraced.plan_cache().Find(key);
    ASSERT_NE(other, nullptr) << key;
    EXPECT_EQ(entry.plan.order, other->plan.order) << key;
    EXPECT_EQ(entry.replans, other->replans) << key;
  }
}

TEST_F(MaintainerPlanCacheTest, UpdatePolicyUsesConstraintFreeSlot) {
  ViewMaintainer maintainer(&catalog_, *view_, MaintenanceOptions());
  maintainer.InitializeView();
  Table* d = catalog_.GetTable("D");

  std::vector<Row> keys = {Row{Value::Int64(0)}};
  std::vector<Row> new_rows = {Row{Value::Int64(0), Value::Int64(7)}};
  std::vector<Row> old_rows;
  ApplyBaseUpdate(d, keys, new_rows, &old_rows);
  maintainer.OnUpdate("D", old_rows, new_rows);

  EXPECT_NE(maintainer.plan_entry("D", true, PlanPolicy::kConstraintFree),
            nullptr);
  EXPECT_NE(maintainer.plan_entry("D", false, PlanPolicy::kConstraintFree),
            nullptr);
  EXPECT_EQ(maintainer.plan_entry("D", true, PlanPolicy::kDefault), nullptr);
}

// bench_planner's shape, shrunk: D joins an expansive B (50 rows per
// d_b) and a selective S (one s_id per 100 d_s values), B listed first.
// A batch whose rows all miss S must not change the plan of the next
// batch: the cached order depends only on the statistics and |Δ|.
TEST(PlanStabilityTest, EmptyJoinResultKeepsCachedOrder) {
  Catalog catalog;
  catalog.CreateTable(
      "D",
      Schema({ColumnDef{"d_id", ValueType::kInt64, false},
              ColumnDef{"d_b", ValueType::kInt64, true},
              ColumnDef{"d_s", ValueType::kInt64, true}}),
      {"d_id"});
  catalog.CreateTable(
      "B",
      Schema({ColumnDef{"b_id", ValueType::kInt64, false},
              ColumnDef{"b_seq", ValueType::kInt64, false}}),
      {"b_id", "b_seq"});
  catalog.CreateTable(
      "S", Schema({ColumnDef{"s_id", ValueType::kInt64, false}}), {"s_id"});
  constexpr int64_t kGroups = 20;
  constexpr int64_t kDomain = 10000;
  Table* d = catalog.GetTable("D");
  for (int64_t i = 0; i < 2000; ++i) {
    d->Insert(Row{Value::Int64(i), Value::Int64(i % kGroups),
                  Value::Int64(i * 7 % kDomain)});
  }
  Table* b = catalog.GetTable("B");
  for (int64_t g = 0; g < kGroups; ++g) {
    for (int64_t seq = 0; seq < 50; ++seq) {
      b->Insert(Row{Value::Int64(g), Value::Int64(seq)});
    }
  }
  Table* s = catalog.GetTable("S");
  for (int64_t i = 0; i < kDomain / 100; ++i) {
    s->Insert(Row{Value::Int64(i * 100)});
  }
  RelExprPtr db =
      RelExpr::Join(JoinKind::kInner, RelExpr::Scan("D"), RelExpr::Scan("B"),
                    Eq("D", "d_b", "B", "b_id"));
  ViewDef view("planner_skew",
               RelExpr::Join(JoinKind::kInner, db, RelExpr::Scan("S"),
                             Eq("D", "d_s", "S", "s_id")),
               {{"D", "d_id"},
                {"D", "d_b"},
                {"D", "d_s"},
                {"B", "b_id"},
                {"B", "b_seq"},
                {"S", "s_id"}},
               catalog);
  ViewMaintainer maintainer(&catalog, view, MaintenanceOptions());
  maintainer.InitializeView();

  int64_t next_key = 100000;
  auto batch = [&](int64_t n, bool hits_s) {
    std::vector<Row> rows;
    for (int64_t i = 0; i < n; ++i) {
      // Multiples of 100 are exactly the d_s values S holds.
      int64_t d_s = hits_s ? i * 100 % kDomain : i * 100 % kDomain + 1;
      rows.push_back(Row{Value::Int64(next_key++), Value::Int64(i % kGroups),
                         Value::Int64(d_s)});
    }
    return ApplyBaseInsert(d, rows);
  };

  maintainer.OnInsert("D", batch(16, /*hits_s=*/false));
  const PlanCacheEntry* entry =
      maintainer.plan_entry("D", true, PlanPolicy::kDefault);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->source, "planned");
  EXPECT_EQ(entry->plan.order, "S,B");

  // 16 -> 60 rows is under kReplanDeltaLog2 doublings: reuse the plan.
  maintainer.OnInsert("D", batch(60, /*hits_s=*/true));
  entry = maintainer.plan_entry("D", true, PlanPolicy::kDefault);
  EXPECT_EQ(entry->source, "cache");
  EXPECT_EQ(entry->replans, 0);
  EXPECT_EQ(entry->plan.order, "S,B");
}

}  // namespace
}  // namespace opt
}  // namespace ojv

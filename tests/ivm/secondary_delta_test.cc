// Focused tests of the secondary-delta engine: the double-orphan case,
// multi-table indirect terms, agreement between the §5.2 and §5.3
// strategies on the TPC-H views, and the view-free candidate
// computation used by aggregation views.

#include "ivm/secondary_delta.h"

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "exec/evaluator.h"
#include "ivm/maintainer.h"
#include "test_util.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/tpch_schema.h"
#include "tpch/views.h"

namespace ojv {
namespace {

// The §8 double-orphan scenario, directly: one lineitem insert must
// retire both a part orphan and an orders orphan.
TEST(SecondaryDeltaTest, OneInsertRetiresTwoOrphans) {
  Catalog catalog;
  tpch::CreateSchema(&catalog);
  tpch::DbgenOptions options;
  options.scale_factor = 0.002;
  tpch::Dbgen dbgen(options);
  dbgen.Populate(&catalog);
  tpch::RefreshStream refresh(&catalog, &dbgen, 5);

  for (SecondaryStrategy strategy :
       {SecondaryStrategy::kFromView, SecondaryStrategy::kFromBaseTables}) {
    ViewDef view = tpch::MakeOjView(catalog);
    MaintenanceOptions m_options;
    m_options.secondary_strategy = strategy;
    ViewMaintainer maintainer(&catalog, view, m_options);
    maintainer.InitializeView();

    // Fresh orphan part + orphan order.
    std::vector<Row> part_rows =
        ApplyBaseInsert(catalog.GetTable("part"), refresh.NewParts(1));
    maintainer.OnInsert("part", part_rows);
    std::vector<Row> order_rows =
        ApplyBaseInsert(catalog.GetTable("orders"), refresh.NewOrders(1));
    maintainer.OnInsert("orders", order_rows);

    Row link = refresh.NewLineitemsFor(order_rows, 1)[0];
    link[1] = part_rows[0][0];  // l_partkey = the orphan part
    std::vector<Row> inserted =
        ApplyBaseInsert(catalog.GetTable("lineitem"), {link});
    MaintenanceStats stats = maintainer.OnInsert("lineitem", inserted);
    EXPECT_EQ(stats.primary_rows, 1);
    EXPECT_EQ(stats.secondary_rows, 2)
        << "strategy " << static_cast<int>(strategy);
    std::string diff;
    ASSERT_TRUE(ViewMatchesRecompute(catalog, view, maintainer.view(), &diff))
        << diff;

    // And deleting the link re-exposes both orphans.
    std::vector<Row> deleted = ApplyBaseDelete(
        catalog.GetTable("lineitem"), {Row{link[0], link[3]}});
    stats = maintainer.OnDelete("lineitem", deleted);
    EXPECT_EQ(stats.secondary_rows, 2);
    ASSERT_TRUE(ViewMatchesRecompute(catalog, view, maintainer.view(), &diff))
        << diff;

    // Clean up the extra part/order so the next strategy starts equal.
    ApplyBaseDelete(catalog.GetTable("orders"), {Row{order_rows[0][0]}});
    ApplyBaseDelete(catalog.GetTable("part"), {Row{part_rows[0][0]}});
  }
}

// Multi-table indirect term: in V1, the {R,S} term is indirectly
// affected by updates of T; its orphans carry two tables' columns.
TEST(SecondaryDeltaTest, MultiTableOrphansAreMaintained) {
  Catalog catalog;
  testing_util::CreateRstuSchema(&catalog);
  // R row joining an S row (the {R,S} orphan), and a T row that will
  // subsume it when inserted (p(r,t): r_b = t_b).
  catalog.GetTable("R")->Insert(
      Row{Value::Int64(1), Value::Int64(5), Value::Int64(7), Value::Null()});
  catalog.GetTable("S")->Insert(
      Row{Value::Int64(2), Value::Int64(5), Value::Null(), Value::Null()});

  ViewDef v1 = testing_util::MakeV1(catalog);
  ViewMaintainer maintainer(&catalog, v1, MaintenanceOptions());
  maintainer.InitializeView();
  ASSERT_EQ(maintainer.view().size(), 1);  // the {R,S} orphan

  Row t_row{Value::Int64(3), Value::Int64(9), Value::Int64(7), Value::Null()};
  std::vector<Row> inserted =
      ApplyBaseInsert(catalog.GetTable("T"), {t_row});
  MaintenanceStats stats = maintainer.OnInsert("T", inserted);
  EXPECT_EQ(stats.primary_rows, 1);    // the new {R,S,T} row
  EXPECT_EQ(stats.secondary_rows, 1);  // the {R,S} orphan retired
  EXPECT_EQ(maintainer.view().size(), 1);
  std::string diff;
  ASSERT_TRUE(ViewMatchesRecompute(catalog, v1, maintainer.view(), &diff))
      << diff;

  // Deleting T re-exposes the two-table orphan.
  std::vector<Row> deleted =
      ApplyBaseDelete(catalog.GetTable("T"), {Row{Value::Int64(3)}});
  stats = maintainer.OnDelete("T", deleted);
  EXPECT_EQ(stats.secondary_rows, 1);
  ASSERT_TRUE(ViewMatchesRecompute(catalog, v1, maintainer.view(), &diff))
      << diff;
}

// The view-free candidate computation must name exactly the rows that
// the view-based strategy deletes/inserts.
TEST(SecondaryDeltaTest, BaseTableCandidatesMatchViewEffects) {
  for (uint64_t seed = 601; seed <= 612; ++seed) {
    Rng rng(seed);
    Catalog catalog;
    testing_util::CreateRstuSchema(&catalog);
    testing_util::PopulateRandomRstu(&catalog, &rng, 20, 4);
    ViewDef v1 = testing_util::MakeV1(catalog);

    ViewMaintainer maintainer(&catalog, v1, MaintenanceOptions());
    maintainer.InitializeView();

    // Snapshot, apply an insert batch to T, diff the view.
    Relation before = maintainer.view().AsRelation();
    int64_t key = 900000 + static_cast<int64_t>(seed);
    std::vector<Row> rows =
        testing_util::RandomRstuRows("T", &rng, 6, 4, &key);
    std::vector<Row> inserted =
        ApplyBaseInsert(catalog.GetTable("T"), rows);

    Relation delta_t(Evaluator::SchemaFor(*catalog.GetTable("T")));
    for (const Row& row : inserted) delta_t.Add(row);
    Relation primary =
        maintainer.ComputePrimaryDeltaRelation("T", delta_t);
    std::vector<Row> candidates =
        maintainer.secondary_engine("T")->CandidatesFromBaseTables(
            primary, delta_t, /*is_insert=*/true);

    maintainer.OnInsert("T", inserted);
    Relation after = maintainer.view().AsRelation();

    // Rows that disappeared from the view must be exactly the
    // candidates the base-table computation named.
    std::vector<Row> disappeared;
    for (const Row& row : before.rows()) {
      bool found = false;
      for (const Row& arow : after.rows()) {
        if (row == arow) {
          found = true;
          break;
        }
      }
      if (!found) disappeared.push_back(row);
    }
    std::vector<Row> expected = candidates;
    SortRows(&expected);
    SortRows(&disappeared);
    EXPECT_EQ(expected, disappeared) << "seed " << seed;
  }
}

// §5.2 and §5.3 agree on the paper's TPC-H views: 200-row inserts into,
// then deletes from, every base table of oj_view, V2 and V3 leave a
// from-view and a from-base-tables maintainer with equal contents.
class SecondaryStrategyTpchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::CreateSchema(&catalog_);
    tpch::DbgenOptions options;
    options.scale_factor = 0.002;
    dbgen_ = std::make_unique<tpch::Dbgen>(options);
    dbgen_->Populate(&catalog_);
    refresh_ = std::make_unique<tpch::RefreshStream>(&catalog_, dbgen_.get(),
                                                     /*seed=*/20260806);
  }

  std::vector<Row> NewRowsFor(const std::string& table, int64_t n) {
    if (table == "lineitem") return refresh_->NewLineitems(n);
    if (table == "orders") return refresh_->NewOrders(n);
    if (table == "part") return refresh_->NewParts(n);
    if (table == "customer") return refresh_->NewCustomers(n);
    return {};
  }

  void CheckView(const ViewDef& view) {
    MaintenanceOptions from_base;
    from_base.secondary_strategy = SecondaryStrategy::kFromBaseTables;
    ViewMaintainer from_view_m(&catalog_, view);
    ViewMaintainer from_base_m(&catalog_, view, from_base);
    from_view_m.InitializeView();
    from_base_m.InitializeView();
    auto expect_equal = [&](const std::string& when) {
      EXPECT_TRUE(from_view_m.view().AsRelation().Equals(
          from_base_m.view().AsRelation()))
          << view.name() << ": strategies diverge after " << when;
    };
    expect_equal("init");

    for (const std::string& table : view.tables()) {
      std::vector<Row> rows = NewRowsFor(table, 200);
      if (rows.empty()) continue;
      Table* base = catalog_.GetTable(table);
      std::vector<Row> inserted = ApplyBaseInsert(base, rows);
      from_view_m.OnInsert(table, inserted);
      from_base_m.OnInsert(table, inserted);
      expect_equal("insert into " + table);

      // Deleting the same rows exercises the deletion pipeline (new
      // orphans via the secondary delta) and restores the state for the
      // next table's round.
      std::vector<Row> keys;
      keys.reserve(inserted.size());
      for (const Row& row : inserted) keys.push_back(base->KeyOf(row));
      std::vector<Row> deleted = ApplyBaseDelete(base, keys);
      from_view_m.OnDelete(table, deleted);
      from_base_m.OnDelete(table, deleted);
      expect_equal("delete from " + table);
    }
  }

  Catalog catalog_;
  std::unique_ptr<tpch::Dbgen> dbgen_;
  std::unique_ptr<tpch::RefreshStream> refresh_;
};

TEST_F(SecondaryStrategyTpchTest, OjView) {
  CheckView(tpch::MakeOjView(catalog_));
}

TEST_F(SecondaryStrategyTpchTest, V2) { CheckView(tpch::MakeV2(catalog_)); }

TEST_F(SecondaryStrategyTpchTest, V3) { CheckView(tpch::MakeV3(catalog_)); }

}  // namespace
}  // namespace ojv

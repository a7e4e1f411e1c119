// Equivalence of every physical execution strategy over the TPC-H
// views: serial hash joins (the reference) and the morsel-parallel
// operators at 1 / 2 / 8 threads must produce
// Relation::Equals view contents for the full maintenance pipeline —
// initialization, primary delta, secondary delta (both the §5.2
// view-based and §5.3 base-table strategies), and the deferred
// consolidated-batch replay through the Database facade.
//
// The parallel variants force parallel_min_rows down to 1 with tiny
// morsels so every operator takes the parallel path even on test-sized
// inputs; thread counts beyond the host's cores are deliberate (the
// scheduling degenerates but the results may not).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ivm/database.h"
#include "ivm/maintainer.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/tpch_schema.h"
#include "tpch/views.h"

namespace ojv {
namespace {

struct Variant {
  std::string name;
  MaintenanceOptions options;
};

std::vector<Variant> Variants() {
  std::vector<Variant> variants;
  variants.push_back({"serial-hash", MaintenanceOptions()});

  for (int threads : {1, 2, 8}) {
    Variant parallel{"parallel-" + std::to_string(threads),
                     MaintenanceOptions()};
    parallel.options.exec.num_threads = threads;
    parallel.options.exec.parallel_min_rows = 1;
    parallel.options.exec.morsel_rows = 64;
    variants.push_back(parallel);
  }

  // §5.3 secondary deltas evaluate full expressions over base tables —
  // the heaviest evaluator use in the pipeline — so cover that strategy
  // under the parallel executor too.
  Variant from_base{"parallel-4-from-base", MaintenanceOptions()};
  from_base.options.exec.num_threads = 4;
  from_base.options.exec.parallel_min_rows = 1;
  from_base.options.exec.morsel_rows = 64;
  from_base.options.secondary_strategy = SecondaryStrategy::kFromBaseTables;
  variants.push_back(from_base);

  return variants;
}

class ParallelExecutorFixture : public ::testing::Test {
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

  // Builds one maintainer per variant, initializes all of them, and
  // runs randomized insert/delete rounds against every base table of
  // the view, comparing each variant's contents to the serial-hash
  // reference after every operation.
  void CheckView(const ViewDef& view) {
    std::vector<Variant> variants = Variants();
    std::vector<std::unique_ptr<ViewMaintainer>> maintainers;
    for (const Variant& variant : variants) {
      maintainers.push_back(std::make_unique<ViewMaintainer>(
          &catalog_, view, variant.options));
      maintainers.back()->InitializeView();
    }
    Relation reference = maintainers[0]->view().AsRelation();
    for (size_t i = 1; i < maintainers.size(); ++i) {
      EXPECT_TRUE(reference.Equals(maintainers[i]->view().AsRelation()))
          << view.name() << " init diverges under " << variants[i].name;
    }

    auto compare_all = [&](const std::string& when) {
      Relation expected = maintainers[0]->view().AsRelation();
      for (size_t i = 1; i < maintainers.size(); ++i) {
        EXPECT_TRUE(expected.Equals(maintainers[i]->view().AsRelation()))
            << view.name() << " diverges under " << variants[i].name
            << " after " << when;
      }
    };

    for (const std::string& table : view.tables()) {
      std::vector<Row> rows = NewRowsFor(table, 200);
      if (rows.empty()) continue;
      Table* base = catalog_.GetTable(table);
      std::vector<Row> inserted = ApplyBaseInsert(base, rows);
      for (auto& maintainer : maintainers) {
        maintainer->OnInsert(table, inserted);
      }
      compare_all("insert into " + table);

      // Delete the same rows again: exercises the deletion pipeline
      // (new orphans via the secondary delta) and restores the state
      // for the next table's round.
      std::vector<Row> keys;
      keys.reserve(inserted.size());
      for (const Row& row : inserted) {
        Row key;
        for (int p : base->key_positions()) {
          key.push_back(row[static_cast<size_t>(p)]);
        }
        keys.push_back(std::move(key));
      }
      std::vector<Row> deleted = ApplyBaseDelete(base, keys);
      for (auto& maintainer : maintainers) {
        maintainer->OnDelete(table, deleted);
      }
      compare_all("delete from " + table);
    }
  }

  Catalog catalog_;
  std::unique_ptr<tpch::Dbgen> dbgen_;
  std::unique_ptr<tpch::RefreshStream> refresh_;
};

TEST_F(ParallelExecutorFixture, OjViewAllStrategiesAgree) {
  CheckView(tpch::MakeOjView(catalog_));
}

TEST_F(ParallelExecutorFixture, V2AllStrategiesAgree) {
  CheckView(tpch::MakeV2(catalog_));
}

TEST_F(ParallelExecutorFixture, V3AllStrategiesAgree) {
  CheckView(tpch::MakeV3(catalog_));
}

// Deferred consolidated replay: a deferred database whose refreshes run
// on an 8-thread executor must converge to the same view contents as an
// immediate serial database fed the identical statement stream —
// including churn rows that consolidate away entirely.
TEST(ParallelExecutorDeferredTest, ConsolidatedReplayMatchesImmediate) {
  tpch::DbgenOptions gen_options;
  gen_options.scale_factor = 0.002;
  tpch::Dbgen dbgen(gen_options);

  Database immediate;
  tpch::CreateSchema(immediate.catalog());
  dbgen.Populate(immediate.catalog());
  immediate.CreateMaterializedView(tpch::MakeV3(*immediate.catalog()));

  Database deferred;
  tpch::CreateSchema(deferred.catalog());
  dbgen.Populate(deferred.catalog());
  MaintenanceOptions parallel_options;
  parallel_options.exec.num_threads = 8;
  parallel_options.exec.parallel_min_rows = 1;
  parallel_options.exec.morsel_rows = 64;
  deferred.CreateMaterializedView(tpch::MakeV3(*deferred.catalog()),
                                  &parallel_options);
  deferred.SetRefreshPolicy("v3", deferred::RefreshPolicy::kOnDemand);

  tpch::RefreshStream stream(immediate.catalog(), &dbgen, /*seed=*/7);
  for (int round = 0; round < 3; ++round) {
    std::vector<Row> rows = stream.NewLineitems(150);
    for (const Row& row : rows) {
      immediate.Insert("lineitem", {row});
      deferred.Insert("lineitem", {row});
    }
    // Churn: delete a third of them again before the refresh, so the
    // consolidation cancels those entries outright.
    std::vector<Row> churn_keys;
    for (size_t i = 0; i < rows.size(); i += 3) {
      churn_keys.push_back(Row{rows[i][0], rows[i][3]});
    }
    immediate.Delete("lineitem", churn_keys);
    deferred.Delete("lineitem", churn_keys);
    deferred.Refresh("v3");

    Relation expected = immediate.ReadView("v3")->AsRelation();
    Relation actual = deferred.ReadView("v3")->AsRelation();
    EXPECT_TRUE(expected.Equals(actual))
        << "deferred parallel replay diverges in round " << round;
  }
}

}  // namespace
}  // namespace ojv

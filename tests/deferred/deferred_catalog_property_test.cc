// Property test for deferred refresh over a large catalog: a randomized
// catalog of 50 overlapping SPOJ and aggregate views over a C/O/L schema
// is refreshed on demand against a random multi-table insert/delete
// stream. Most refreshed batches span several tables, so they take the
// revert-and-replay path of Database::RefreshLocked. Mid-stream
// single-view refreshes leave the views on diverging delta-log
// high-water marks, so each later refresh replays a different suffix of
// the log while the log truncates only what every consumer has read.
// After every synchronization point each view must equal a from-scratch
// recompute.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "common/rng.h"
#include "ivm/database.h"

namespace ojv {
namespace {

using deferred::RefreshPolicy;

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

void CreateColSchema(Catalog* catalog) {
  catalog->CreateTable(
      "C",
      Schema({ColumnDef{"c_id", ValueType::kInt64, false},
              ColumnDef{"c_a", ValueType::kInt64, true}}),
      {"c_id"});
  catalog->CreateTable(
      "O",
      Schema({ColumnDef{"o_id", ValueType::kInt64, false},
              ColumnDef{"o_c", ValueType::kInt64, true},
              ColumnDef{"o_a", ValueType::kInt64, true}}),
      {"o_id"});
  catalog->CreateTable(
      "L",
      Schema({ColumnDef{"l_id", ValueType::kInt64, false},
              ColumnDef{"l_o", ValueType::kInt64, true},
              ColumnDef{"l_q", ValueType::kInt64, true}}),
      {"l_id"});
}

// A random view drawn from a deliberately small shape space, so a
// 50-view catalog holds many views over the same tables and join
// columns, each a separate consumer of the same log entries.
struct RandomView {
  std::string name;
  bool aggregate = false;
  RelExprPtr tree;
  std::vector<ColumnRef> cols;
};

JoinKind RandomJoinKind(Rng* rng) {
  switch (rng->Uniform(0, 2)) {
    case 0:
      return JoinKind::kInner;
    case 1:
      return JoinKind::kLeftOuter;
    default:
      return JoinKind::kFullOuter;
  }
}

RandomView MakeRandomView(Rng* rng, int index) {
  RandomView out;
  out.name = "v" + std::to_string(index);

  const int shape = static_cast<int>(rng->Uniform(0, 3));
  RelExprPtr tree;
  std::vector<ColumnRef> cols = {{"C", "c_id"}, {"C", "c_a"}};
  if (shape == 0 || shape == 1) {
    // C x O, optionally pre-filtered on O and optionally extended to L.
    RelExprPtr right = RelExpr::Scan("O");
    if (rng->Chance(0.5)) {
      right = RelExpr::Select(
          right, ScalarExpr::Compare(
                     CompareOp::kGe, ScalarExpr::Column("O", "o_a"),
                     ScalarExpr::Literal(Value::Int64(rng->Uniform(0, 2)))));
    }
    tree = RelExpr::Join(RandomJoinKind(rng), RelExpr::Scan("C"),
                         std::move(right), Eq("C", "c_id", "O", "o_c"));
    cols.push_back({"O", "o_id"});
    cols.push_back({"O", "o_a"});
    if (shape == 1) {
      tree = RelExpr::Join(rng->Chance(0.5) ? JoinKind::kLeftOuter
                                            : JoinKind::kInner,
                           std::move(tree), RelExpr::Scan("L"),
                           Eq("O", "o_id", "L", "l_o"));
      cols.push_back({"L", "l_id"});
      cols.push_back({"L", "l_q"});
    }
  } else {
    // C x L on the small-domain attribute pair.
    tree = RelExpr::Join(RandomJoinKind(rng), RelExpr::Scan("C"),
                         RelExpr::Scan("L"), Eq("C", "c_a", "L", "l_q"));
    cols.push_back({"L", "l_id"});
    cols.push_back({"L", "l_o"});
  }
  out.aggregate = rng->Chance(0.15);
  out.tree = std::move(tree);
  out.cols = std::move(cols);
  return out;
}

class DeferredCatalogPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeferredCatalogPropertyTest, RefreshesMatchRecomputeOnRandomCatalog) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  Database db;
  CreateColSchema(db.catalog());

  constexpr int kNumViews = 50;
  std::vector<RandomView> views;
  for (int i = 0; i < kNumViews; ++i) {
    views.push_back(MakeRandomView(&rng, i));
  }
  for (const RandomView& v : views) {
    ViewDef def(v.name, v.tree, v.cols, *db.catalog());
    if (v.aggregate) {
      db.CreateAggregateView(
          std::move(def), {{"C", "c_a"}},
          {AggregateSpec{AggregateSpec::Kind::kCountStar, {}, "cnt"}});
    } else {
      db.CreateMaterializedView(std::move(def));
    }
    db.SetRefreshPolicy(v.name, RefreshPolicy::kOnDemand);
  }

  int64_t next_c = 1;
  int64_t next_o = 1;
  int64_t next_l = 1;
  auto random_statement = [&] {
    switch (rng.Uniform(0, 6)) {
      case 0:
        db.Insert("C",
                  {{Value::Int64(next_c++), Value::Int64(rng.Uniform(0, 3))}});
        break;
      case 1:
        db.Insert("O", {{Value::Int64(next_o++),
                         Value::Int64(1 + rng.Uniform(0, std::max<int64_t>(
                                                             1, next_c - 1))),
                         Value::Int64(rng.Uniform(0, 3))}});
        break;
      case 2:
        db.Insert("L", {{Value::Int64(next_l++),
                         Value::Int64(1 + rng.Uniform(0, std::max<int64_t>(
                                                             1, next_o - 1))),
                         Value::Int64(rng.Uniform(0, 3))}});
        break;
      case 3:
        if (next_c > 1) {
          db.Delete("C", {{Value::Int64(1 + rng.Uniform(0, next_c - 1))}});
        }
        break;
      case 4:
        if (next_o > 1) {
          db.Delete("O", {{Value::Int64(1 + rng.Uniform(0, next_o - 1))}});
        }
        break;
      default:
        if (next_l > 1) {
          db.Delete("L", {{Value::Int64(1 + rng.Uniform(0, next_l - 1))}});
        }
        break;
    }
  };

  auto expect_matches_recompute = [&](const RandomView& v, const char* when) {
    std::string diff;
    if (v.aggregate) {
      ASSERT_TRUE(db.GetAggregateView(v.name)->MatchesRecompute(1e-9, &diff))
          << when << " " << v.name << " seed " << seed << ": " << diff;
    } else {
      ViewMaintainer* view = db.GetView(v.name);
      ASSERT_TRUE(ViewMatchesRecompute(*db.catalog(), view->view_def(),
                                       view->view(), &diff))
          << when << " " << v.name << " seed " << seed << ": " << diff;
    }
  };
  auto sync_and_check = [&](const char* when) {
    db.RefreshAll();
    ASSERT_EQ(db.DeltaLogSize(), 0) << when << " seed " << seed;
    for (const RandomView& v : views) {
      expect_matches_recompute(v, when);
      if (HasFatalFailure()) return;
    }
  };

  for (int round = 0; round < 6; ++round) {
    const int statements = 4 + static_cast<int>(rng.Uniform(0, 5));
    for (int i = 0; i < statements; ++i) random_statement();

    // Refresh up to two random views alone: their marks move past the
    // rest of the catalog's, so the next refreshes replay different
    // log suffixes for different views.
    for (int k = 0; k < 2; ++k) {
      if (!rng.Chance(0.4)) continue;
      const RandomView& v =
          views[static_cast<size_t>(rng.Uniform(0, kNumViews - 1))];
      db.Refresh(v.name);
      ASSERT_EQ(db.PendingRows(v.name), 0) << v.name << " seed " << seed;
      expect_matches_recompute(v, "after single refresh");
      if (HasFatalFailure()) return;
    }
    if (rng.Chance(0.5)) {
      sync_and_check("after round sync");
      if (HasFatalFailure()) return;
    }
  }
  sync_and_check("final");
}

INSTANTIATE_TEST_SUITE_P(RandomCatalogs, DeferredCatalogPropertyTest,
                         ::testing::Range<uint64_t>(4201, 4204));

}  // namespace
}  // namespace ojv

// The planner's legality contract, checked by brute force: every valid
// left-deep join order of a mixed inner/left-outer delta chain over 4
// tables evaluates to the same relation, with every join run as an
// index probe or as a hash join, and full maintenance under the
// cost-based planner (which picks probes where an index serves a step)
// stays identical to a from-scratch recomputation.

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/recompute.h"
#include "common/rng.h"
#include "exec/evaluator.h"
#include "ivm/maintainer.h"
#include "opt/planner.h"

namespace ojv {
namespace {

struct ChainStep {
  const char* table;
  JoinKind kind;
  const char* delta_col;  // D column the step's predicate uses
  const char* right_col;
};

// All predicates reference the delta table D only, so every permutation
// of the three steps is a valid left-deep order.
const ChainStep kSteps[3] = {
    {"A", JoinKind::kLeftOuter, "d_a", "a_k"},
    {"B", JoinKind::kInner, "d_b", "b_k"},
    {"C", JoinKind::kLeftOuter, "d_c", "c_k"},
};

class PlannerPropertyTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    Rng rng(GetParam());
    catalog_.CreateTable(
        "D",
        Schema({ColumnDef{"d_id", ValueType::kInt64, false},
                ColumnDef{"d_a", ValueType::kInt64, true},
                ColumnDef{"d_b", ValueType::kInt64, true},
                ColumnDef{"d_c", ValueType::kInt64, true}}),
        {"d_id"});
    for (const ChainStep& step : kSteps) {
      std::string prefix(1, static_cast<char>(std::tolower(step.table[0])));
      catalog_.CreateTable(
          step.table,
          Schema({ColumnDef{prefix + "_id", ValueType::kInt64, false},
                  ColumnDef{prefix + "_k", ValueType::kInt64, true}}),
          {prefix + "_id"});
      Table* t = catalog_.GetTable(step.table);
      t->AddIndex({1});  // on the join column, so every step can probe
      int rows = static_cast<int>(rng.Uniform(5, 25));
      for (int i = 0; i < rows; ++i) {
        Value key = rng.Chance(0.15) ? Value::Null()
                                     : Value::Int64(rng.Uniform(0, 5));
        t->Insert(Row{Value::Int64(i), key});
      }
    }
    Table* d = catalog_.GetTable("D");
    int rows = static_cast<int>(rng.Uniform(8, 20));
    for (int i = 0; i < rows; ++i) {
      d->Insert(RandomDRow(&rng, i));
    }
    // The pending delta of D, tagged with D's schema.
    delta_ = std::make_unique<Relation>(
        Evaluator::SchemaFor(*catalog_.GetTable("D")));
    int delta_rows = static_cast<int>(rng.Uniform(1, 8));
    for (int i = 0; i < delta_rows; ++i) {
      delta_->Add(RandomDRow(&rng, 1000 + i));
    }
  }

  static Row RandomDRow(Rng* rng, int key) {
    auto jcol = [&] {
      return rng->Chance(0.15) ? Value::Null()
                               : Value::Int64(rng->Uniform(0, 5));
    };
    return Row{Value::Int64(key), jcol(), jcol(), jcol()};
  }

  /// ΔD joined through the three steps in the given order, projected to
  /// a fixed column list so every order has the same output schema.
  RelExprPtr ChainFor(const std::vector<int>& order) {
    RelExprPtr expr = RelExpr::DeltaScan("D");
    for (int idx : order) {
      const ChainStep& step = kSteps[static_cast<size_t>(idx)];
      std::string prefix(1, static_cast<char>(std::tolower(step.table[0])));
      expr = RelExpr::Join(
          step.kind, expr, RelExpr::Scan(step.table),
          ScalarExpr::ColumnsEqual({"D", step.delta_col},
                                   {step.table, step.right_col}));
    }
    std::vector<ColumnRef> out = {{"D", "d_id"}, {"D", "d_a"},
                                  {"D", "d_b"},  {"D", "d_c"},
                                  {"A", "a_id"}, {"A", "a_k"},
                                  {"B", "b_id"}, {"B", "b_k"},
                                  {"C", "c_id"}, {"C", "c_k"}};
    return RelExpr::Project(expr, out);
  }

  /// Evaluates `expr`; with `probe`, every join runs as a probe join.
  Relation Eval(const RelExprPtr& expr, bool probe = false) {
    std::unordered_set<const RelExpr*> joins;
    for (const RelExpr* e = expr.get(); !e->children().empty();
         e = e->children()[0].get()) {
      if (e->kind() == RelKind::kJoin) joins.insert(e);
    }
    Evaluator evaluator(&catalog_);
    evaluator.BindDelta("D", delta_.get());
    if (probe) evaluator.set_probe_joins(&joins);
    return evaluator.EvalToRelation(expr);
  }

  Catalog catalog_;
  std::unique_ptr<Relation> delta_;
};

TEST_P(PlannerPropertyTest, EveryValidOrderEvaluatesIdentically) {
  std::vector<int> order = {0, 1, 2};
  Relation reference = Eval(ChainFor(order));
  do {
    for (bool probe : {false, true}) {
      Relation actual = Eval(ChainFor(order), probe);
      std::string diff;
      EXPECT_TRUE(SameBag(reference, actual, &diff))
          << "order " << order[0] << order[1] << order[2]
          << (probe ? " probed" : " hashed") << ": " << diff;
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

// Full-system check: maintenance with the cost-based planner tracks a
// from-scratch recomputation across a random insert/delete workload.
class PlannerMaintenanceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlannerMaintenanceTest, CostBasedMaintenanceMatchesRecompute) {
  Rng rng(GetParam());
  Catalog catalog;
  catalog.CreateTable(
      "D",
      Schema({ColumnDef{"d_id", ValueType::kInt64, false},
              ColumnDef{"d_a", ValueType::kInt64, true},
              ColumnDef{"d_b", ValueType::kInt64, true}}),
      {"d_id"});
  catalog.CreateTable(
      "A",
      Schema({ColumnDef{"a_id", ValueType::kInt64, false},
              ColumnDef{"a_k", ValueType::kInt64, true}}),
      {"a_id"});
  catalog.CreateTable(
      "B",
      Schema({ColumnDef{"b_id", ValueType::kInt64, false},
              ColumnDef{"b_k", ValueType::kInt64, true}}),
      {"b_id"});
  auto fill = [&](const char* name, int n) {
    Table* t = catalog.GetTable(name);
    for (int i = 0; i < n; ++i) {
      Value key = rng.Chance(0.2) ? Value::Null()
                                  : Value::Int64(rng.Uniform(0, 4));
      if (std::string(name) == "D") {
        t->Insert(Row{Value::Int64(i), key,
                      rng.Chance(0.2) ? Value::Null()
                                      : Value::Int64(rng.Uniform(0, 4))});
      } else {
        t->Insert(Row{Value::Int64(i), key});
      }
    }
  };
  // Index the join columns so the planner can pick probe joins.
  catalog.GetTable("A")->AddIndex({1});
  catalog.GetTable("B")->AddIndex({1});
  fill("D", static_cast<int>(rng.Uniform(8, 20)));
  fill("A", static_cast<int>(rng.Uniform(5, 15)));
  fill("B", static_cast<int>(rng.Uniform(5, 15)));

  RelExprPtr tree = RelExpr::Join(
      JoinKind::kInner,
      RelExpr::Join(JoinKind::kLeftOuter, RelExpr::Scan("D"),
                    RelExpr::Scan("A"),
                    ScalarExpr::ColumnsEqual({"D", "d_a"}, {"A", "a_k"})),
      RelExpr::Scan("B"),
      ScalarExpr::ColumnsEqual({"D", "d_b"}, {"B", "b_k"}));
  ViewDef view("planner_prop", tree,
               {{"D", "d_id"},
                {"D", "d_a"},
                {"D", "d_b"},
                {"A", "a_id"},
                {"A", "a_k"},
                {"B", "b_id"},
                {"B", "b_k"}},
               catalog);

  ViewMaintainer costed_m(&catalog, view);
  costed_m.InitializeView();

  int64_t next_key = 5000;
  const char* tables[] = {"D", "A", "B"};
  for (int op = 0; op < 8; ++op) {
    const char* name = tables[rng.Uniform(0, 2)];
    Table* table = catalog.GetTable(name);
    if (rng.Chance(0.4) && table->size() > 2) {
      // Delete a couple of random existing rows.
      std::vector<Row> keys;
      table->ForEach([&](const Row& row) {
        if (keys.size() < 2 && rng.Chance(0.3)) keys.push_back(Row{row[0]});
      });
      std::vector<Row> deleted = ApplyBaseDelete(table, keys);
      costed_m.OnDelete(name, deleted);
    } else {
      std::vector<Row> rows;
      int n = static_cast<int>(rng.Uniform(1, 5));
      for (int i = 0; i < n; ++i) {
        Value key = rng.Chance(0.2) ? Value::Null()
                                    : Value::Int64(rng.Uniform(0, 4));
        if (std::string(name) == "D") {
          rows.push_back(Row{Value::Int64(next_key++), key,
                             rng.Chance(0.2)
                                 ? Value::Null()
                                 : Value::Int64(rng.Uniform(0, 4))});
        } else {
          rows.push_back(Row{Value::Int64(next_key++), key});
        }
      }
      std::vector<Row> inserted = ApplyBaseInsert(table, rows);
      costed_m.OnInsert(name, inserted);
    }
    std::string diff;
    ASSERT_TRUE(ViewMatchesRecompute(catalog, view, costed_m.view(), &diff))
        << "costed op " << op << " on " << name << ": " << diff;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));
INSTANTIATE_TEST_SUITE_P(Seeds, PlannerMaintenanceTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace ojv

// Google-benchmark microbenchmarks for the relational substrate: hash
// joins (all outer-join flavors), duplicate elimination, removal of
// subsumed tuples, minimum union, and null-if — the operators every
// maintenance expression is built from (experiment E9).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "exec/evaluator.h"

namespace ojv {
namespace {

// Two keyed tables with `rows` rows each and ~50% join hit rate.
class OperatorFixture {
 public:
  explicit OperatorFixture(int64_t rows) : rng_(7) {
    catalog_.CreateTable(
        "L",
        Schema({ColumnDef{"lid", ValueType::kInt64, false},
                ColumnDef{"lk", ValueType::kInt64, true},
                ColumnDef{"lv", ValueType::kInt64, true}}),
        {"lid"});
    catalog_.CreateTable(
        "R",
        Schema({ColumnDef{"rid", ValueType::kInt64, false},
                ColumnDef{"rk", ValueType::kInt64, true},
                ColumnDef{"rv", ValueType::kInt64, true}}),
        {"rid"});
    Table* l = catalog_.GetTable("L");
    Table* r = catalog_.GetTable("R");
    for (int64_t i = 0; i < rows; ++i) {
      l->Insert(Row{Value::Int64(i), Value::Int64(rng_.Uniform(0, 2 * rows)),
                    Value::Int64(i)});
      r->Insert(Row{Value::Int64(i), Value::Int64(rng_.Uniform(0, 2 * rows)),
                    Value::Int64(i)});
    }
  }

  Relation Eval(const RelExprPtr& e) {
    Evaluator evaluator(&catalog_);
    return evaluator.EvalToRelation(e);
  }

  Relation EvalSortMerge(const RelExprPtr& e) {
    Evaluator evaluator(&catalog_);
    evaluator.set_join_algorithm(Evaluator::JoinAlgorithm::kSortMerge);
    return evaluator.EvalToRelation(e);
  }

  RelExprPtr Join(JoinKind kind) {
    return RelExpr::Join(kind, RelExpr::Scan("L"), RelExpr::Scan("R"),
                         ScalarExpr::ColumnsEqual({"L", "lk"}, {"R", "rk"}));
  }

 private:
  Catalog catalog_;
  Rng rng_;
};

void BM_HashJoinInner(benchmark::State& state) {
  OperatorFixture fixture(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.Eval(fixture.Join(JoinKind::kInner)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HashJoinInner)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SortMergeInner(benchmark::State& state) {
  OperatorFixture fixture(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fixture.EvalSortMerge(fixture.Join(JoinKind::kInner)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SortMergeInner)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_FullOuterJoin(benchmark::State& state) {
  OperatorFixture fixture(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.Eval(fixture.Join(JoinKind::kFullOuter)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullOuterJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_LeftAntiJoin(benchmark::State& state) {
  OperatorFixture fixture(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.Eval(fixture.Join(JoinKind::kLeftAnti)));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LeftAntiJoin)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_MinUnion(benchmark::State& state) {
  OperatorFixture fixture(state.range(0));
  RelExprPtr expr =
      RelExpr::MinUnion(RelExpr::Scan("L"),
                        RelExpr::Join(JoinKind::kInner, RelExpr::Scan("L"),
                                      RelExpr::Scan("R"),
                                      ScalarExpr::ColumnsEqual({"L", "lk"},
                                                               {"R", "rk"})));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.Eval(expr));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_MinUnion)->Arg(1000)->Arg(10000);

void BM_RemoveSubsumed(benchmark::State& state) {
  OperatorFixture fixture(state.range(0));
  Relation joined = fixture.Eval(fixture.Join(JoinKind::kLeftOuter));
  for (auto _ : state) {
    Relation copy = joined;
    benchmark::DoNotOptimize(Evaluator::RemoveSubsumed(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * joined.size());
}
BENCHMARK(BM_RemoveSubsumed)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Dedup(benchmark::State& state) {
  OperatorFixture fixture(state.range(0));
  Relation joined = fixture.Eval(fixture.Join(JoinKind::kLeftOuter));
  for (auto _ : state) {
    Relation copy = joined;
    benchmark::DoNotOptimize(Evaluator::DedupRows(std::move(copy)));
  }
  state.SetItemsProcessed(state.iterations() * joined.size());
}
BENCHMARK(BM_Dedup)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_NullIf(benchmark::State& state) {
  OperatorFixture fixture(state.range(0));
  RelExprPtr expr = RelExpr::NullIf(
      fixture.Join(JoinKind::kLeftOuter), {"R"},
      ScalarExpr::Compare(CompareOp::kGt, ScalarExpr::Column("R", "rv"),
                          ScalarExpr::Literal(Value::Int64(10))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixture.Eval(expr));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_NullIf)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace ojv

BENCHMARK_MAIN();

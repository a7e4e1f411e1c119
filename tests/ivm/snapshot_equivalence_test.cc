// Snapshot-read equivalence property (DESIGN.md §17): at every
// generation boundary — an explicit Refresh, a kFresh read, or the
// opportunistic catch-up a kSnapshot read performs on an eager view —
// the pinned snapshot must equal what a single-threaded database
// (all-immediate: the oracle) holds after the same statement stream.
// Between boundaries, a deferred view's kSnapshot reads must keep
// returning exactly the contents published at the last boundary.

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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

void CreateSchema(Database* db) {
  db->catalog()->CreateTable(
      "dept",
      Schema({ColumnDef{"d_id", ValueType::kInt64, false},
              ColumnDef{"d_name", ValueType::kString, false}}),
      {"d_id"});
  db->catalog()->CreateTable(
      "emp",
      Schema({ColumnDef{"e_id", ValueType::kInt64, false},
              ColumnDef{"e_dept", ValueType::kInt64, false},
              ColumnDef{"e_salary", ValueType::kFloat64, true}}),
      {"e_id"});
}

ViewDef MakeView(const Catalog& catalog, const char* name) {
  RelExprPtr tree = RelExpr::Join(
      JoinKind::kFullOuter, RelExpr::Scan("dept"), RelExpr::Scan("emp"),
      Eq("dept", "d_id", "emp", "e_dept"));
  return ViewDef(name, tree,
                 {{"dept", "d_id"},
                  {"dept", "d_name"},
                  {"emp", "e_id"},
                  {"emp", "e_dept"},
                  {"emp", "e_salary"}},
                 catalog);
}

class SnapshotEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SnapshotEquivalenceTest, SnapshotsMatchSingleThreadedAtBoundaries) {
  const uint64_t seed = GetParam();

  Database subject;
  Database oracle;  // all-immediate reference
  CreateSchema(&subject);
  CreateSchema(&oracle);

  // v1 and v2 run deferred in the subject and refresh at different
  // boundaries. v3 is the same shape but stays eager, so kSnapshot
  // reads exercise the opportunistic rebuild.
  for (Database* db : {&subject, &oracle}) {
    db->CreateMaterializedView(MakeView(*db->catalog(), "v1"));
    db->CreateMaterializedView(MakeView(*db->catalog(), "v2"));
    db->CreateMaterializedView(MakeView(*db->catalog(), "v3"));
  }
  subject.SetRefreshPolicy("v1", RefreshPolicy::kOnDemand);
  subject.SetRefreshPolicy("v2", RefreshPolicy::kOnDemand);

  auto oracle_rel = [&](const std::string& view) {
    return oracle.GetView(view)->view().AsRelation();
  };
  // Contents at each view's last generation boundary, in oracle terms.
  std::map<std::string, Relation> published;
  for (const char* v : {"v1", "v2"}) published[v] = oracle_rel(v);

  Rng rng(seed);
  int64_t next_emp = 0;
  int64_t next_dept = 0;
  std::vector<int64_t> live_emps;
  auto random_statement = [&] {
    const double dice = rng.NextDouble();
    if (dice < 0.15 || next_dept == 0) {
      Row dept{Value::Int64(next_dept++), Value::String(rng.Text(3, 8))};
      ASSERT_TRUE(subject.Insert("dept", {dept}).ok());
      ASSERT_TRUE(oracle.Insert("dept", {dept}).ok());
    } else if (dice < 0.55 || live_emps.empty()) {
      // Skewed dept references: 70% of new emps join the hot dept 0.
      std::vector<Row> rows;
      for (int i = 0; i < 3; ++i) {
        const int64_t dept =
            rng.Chance(0.7) ? 0 : rng.Uniform(0, next_dept - 1);
        rows.push_back(Row{Value::Int64(next_emp), Value::Int64(dept),
                           Value::Float64(rng.NextDouble() * 100.0)});
        live_emps.push_back(next_emp++);
      }
      ASSERT_TRUE(subject.Insert("emp", rows).ok());
      ASSERT_TRUE(oracle.Insert("emp", rows).ok());
    } else if (dice < 0.8) {
      const size_t pick =
          static_cast<size_t>(rng.Uniform(0, live_emps.size() - 1));
      const int64_t e = live_emps[pick];
      const int64_t dept = rng.Chance(0.7) ? 0 : rng.Uniform(0, next_dept - 1);
      Row updated{Value::Int64(e), Value::Int64(dept),
                  Value::Float64(rng.NextDouble() * 100.0)};
      ASSERT_TRUE(
          subject.Update("emp", {{Value::Int64(e)}}, {updated}).ok());
      ASSERT_TRUE(oracle.Update("emp", {{Value::Int64(e)}}, {updated}).ok());
    } else {
      const size_t pick =
          static_cast<size_t>(rng.Uniform(0, live_emps.size() - 1));
      const int64_t e = live_emps[pick];
      live_emps.erase(live_emps.begin() + static_cast<ptrdiff_t>(pick));
      ASSERT_TRUE(subject.Delete("emp", {{Value::Int64(e)}}).ok());
      ASSERT_TRUE(oracle.Delete("emp", {{Value::Int64(e)}}).ok());
    }
  };

  for (int op = 0; op < 50; ++op) {
    random_statement();
    if (HasFatalFailure()) return;

    // Between boundaries: a deferred view's snapshot is exactly the
    // last published generation — never a partially-applied batch.
    for (const char* v : {"v1", "v2"}) {
      ViewSnapshot snap = subject.AcquireSnapshot(v);
      ASSERT_TRUE(snap.valid());
      ASSERT_TRUE(snap.relation().Equals(published[v]))
          << "op " << op << ": " << v
          << " snapshot diverged from its last boundary";
    }
    // The eager view's kSnapshot read catches up opportunistically
    // (nothing else holds the mutex here), creating a boundary that
    // must equal the oracle's current contents.
    ViewSnapshot eager = subject.AcquireSnapshot("v3");
    ASSERT_TRUE(eager.valid());
    ASSERT_TRUE(eager.relation().Equals(oracle_rel("v3")))
        << "op " << op << ": eager snapshot diverged from single-threaded";

    if (op % 5 == 4) {
      // Explicit refresh boundary for v1 only: v2 keeps serving its
      // last published generation.
      subject.Refresh("v1");
      published["v1"] = oracle_rel("v1");
      for (const char* v : {"v1", "v2"}) {
        ViewSnapshot snap = subject.AcquireSnapshot(v);
        ASSERT_TRUE(snap.relation().Equals(published[v]))
            << "op " << op << ": " << v << " wrong right after refresh";
      }
    }
    if (op % 10 == 9) {
      // kFresh read boundary for v2 (drains v2 only).
      ViewSnapshot fresh = subject.ReadView("v2");
      ASSERT_TRUE(fresh.relation().Equals(oracle_rel("v2")))
          << "op " << op << ": kFresh read diverged from single-threaded";
      published["v2"] = oracle_rel("v2");
    }
  }

  // Final boundary: everything drained, all three equal the oracle.
  for (const char* v : {"v1", "v2", "v3"}) {
    ViewSnapshot fin = subject.ReadView(v);
    ASSERT_TRUE(fin.relation().Equals(oracle.GetView(v)->view().AsRelation()))
        << v << " final contents diverged";
    ASSERT_EQ(subject.PendingRows(v), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SnapshotEquivalenceTest,
                         ::testing::Values(7u, 1234u));

}  // namespace
}  // namespace ojv

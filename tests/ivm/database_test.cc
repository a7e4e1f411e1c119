// The statement-level Database facade: FK enforcement, cascading
// deletes, update statements, and automatic maintenance of every
// registered view (row-level and aggregated).

#include "ivm/database.h"

#include <map>

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "obs/trace.h"

namespace ojv {
namespace {

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.catalog()->CreateTable(
        "dept",
        Schema({ColumnDef{"d_id", ValueType::kInt64, false},
                ColumnDef{"d_name", ValueType::kString, false}}),
        {"d_id"});
    db_.catalog()->CreateTable(
        "emp",
        Schema({ColumnDef{"e_id", ValueType::kInt64, false},
                ColumnDef{"e_dept", ValueType::kInt64, false},
                ColumnDef{"e_salary", ValueType::kFloat64, true}}),
        {"e_id"});
  }

  ViewDef MakeDeptView(const char* name = "dept_emp") {
    RelExprPtr tree = RelExpr::Join(
        JoinKind::kFullOuter, RelExpr::Scan("dept"), RelExpr::Scan("emp"),
        Eq("dept", "d_id", "emp", "e_dept"));
    return ViewDef(name, tree,
                   {{"dept", "d_id"},
                    {"dept", "d_name"},
                    {"emp", "e_id"},
                    {"emp", "e_dept"},
                    {"emp", "e_salary"}},
                   *db_.catalog());
  }

  Row Dept(int64_t id, const char* name) {
    return Row{Value::Int64(id), Value::String(name)};
  }
  Row Emp(int64_t id, int64_t dept, double salary) {
    return Row{Value::Int64(id), Value::Int64(dept), Value::Float64(salary)};
  }

  // Seeds dept/emp under the dept_emp view and records both tables, so a
  // malformed statement can be shown to leave everything as it was.
  ViewMaintainer* SeedForMalformed() {
    ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
    db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
    db_.Insert("emp", {Emp(10, 1, 100.0), Emp(11, 2, 90.0)});
    dept_before_ = Rows("dept");
    emp_before_ = Rows("emp");
    return view;
  }

  // A rejected statement mutates nothing, so even slot order is kept.
  std::vector<Row> Rows(const std::string& table) {
    return db_.catalog()->GetTable(table)->Snapshot();
  }

  void ExpectUnchangedAndConsistent(const ViewMaintainer& view) {
    EXPECT_EQ(Rows("dept"), dept_before_);
    EXPECT_EQ(Rows("emp"), emp_before_);
    std::string diff;
    EXPECT_TRUE(ViewMatchesRecompute(*db_.catalog(), view.view_def(),
                                     view.view(), &diff))
        << diff;
  }

  Database db_;
  std::vector<Row> dept_before_;
  std::vector<Row> emp_before_;
};

TEST_F(DatabaseTest, InsertEnforcesForeignKeys) {
  db_.catalog()->AddForeignKey({"emp", {"e_dept"}, "dept", {"d_id"}});
  EXPECT_EQ(db_.Insert("dept", {Dept(1, "eng")}).rows_affected, 1);

  Database::StatementResult result =
      db_.Insert("emp", {Emp(10, 1, 100.0), Emp(11, 99, 50.0)});
  EXPECT_EQ(result.rows_affected, 1);  // emp 11 references missing dept 99
  EXPECT_EQ(result.rows_rejected, 1);
  EXPECT_EQ(db_.catalog()->GetTable("emp")->size(), 1);
}

TEST_F(DatabaseTest, DuplicateKeysAreRejectedRowWise) {
  db_.Insert("dept", {Dept(1, "eng")});
  Database::StatementResult result =
      db_.Insert("dept", {Dept(1, "dup"), Dept(2, "ops")});
  EXPECT_EQ(result.rows_affected, 1);
  EXPECT_EQ(result.rows_rejected, 1);
}

TEST_F(DatabaseTest, DeleteBlocksOnRestrictingForeignKey) {
  db_.catalog()->AddForeignKey({"emp", {"e_dept"}, "dept", {"d_id"}});
  db_.Insert("dept", {Dept(1, "eng")});
  db_.Insert("emp", {Emp(10, 1, 100.0)});

  Database::StatementResult result =
      db_.Delete("dept", {Row{Value::Int64(1)}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(db_.catalog()->GetTable("dept")->size(), 1);

  // After removing the employee, the delete succeeds.
  EXPECT_TRUE(db_.Delete("emp", {Row{Value::Int64(10)}}).ok());
  EXPECT_TRUE(db_.Delete("dept", {Row{Value::Int64(1)}}).ok());
  EXPECT_EQ(db_.catalog()->GetTable("dept")->size(), 0);
}

TEST_F(DatabaseTest, CascadingDeleteMaintainsViews) {
  ForeignKey fk{"emp", {"e_dept"}, "dept", {"d_id"}};
  fk.cascading_delete = true;
  db_.catalog()->AddForeignKey(fk);

  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
  db_.Insert("emp", {Emp(10, 1, 100.0), Emp(11, 1, 120.0), Emp(12, 2, 90.0)});

  Database::StatementResult result =
      db_.Delete("dept", {Row{Value::Int64(1)}});
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.rows_affected, 3);  // dept 1 + two cascaded employees
  EXPECT_EQ(db_.catalog()->GetTable("emp")->size(), 1);

  std::string diff;
  EXPECT_TRUE(ViewMatchesRecompute(*db_.catalog(), view->view_def(),
                                   view->view(), &diff))
      << diff;
}

// A blocked cascade rejects the whole statement: p cascades to c1 and
// c2, but a restricting g references c2's row, so deleting p's row must
// leave every table (c1 included) and every view as it was.
TEST_F(DatabaseTest, BlockedCascadeChangesNothing) {
  Catalog* catalog = db_.catalog();
  catalog->CreateTable("p", Schema({ColumnDef{"p_id", ValueType::kInt64,
                                              false}}),
                       {"p_id"});
  for (const char* child : {"c1", "c2", "g"}) {
    catalog->CreateTable(
        child,
        Schema({ColumnDef{"id", ValueType::kInt64, false},
                ColumnDef{"ref", ValueType::kInt64, false}}),
        {"id"});
  }
  for (const char* child : {"c1", "c2"}) {
    ForeignKey fk{child, {"ref"}, "p", {"p_id"}};
    fk.cascading_delete = true;
    catalog->AddForeignKey(fk);
  }
  catalog->AddForeignKey({"g", {"ref"}, "c2", {"id"}});
  std::vector<ViewMaintainer*> views;
  for (const char* child : {"c1", "c2"}) {
    RelExprPtr tree = RelExpr::Join(JoinKind::kLeftOuter, RelExpr::Scan("p"),
                                    RelExpr::Scan(child),
                                    Eq("p", "p_id", child, "ref"));
    views.push_back(db_.CreateMaterializedView(ViewDef(
        std::string("p_") + child, tree,
        {{"p", "p_id"}, {child, "id"}, {child, "ref"}}, *catalog)));
  }
  const Row one{Value::Int64(1)};
  const Row child_row{Value::Int64(1), Value::Int64(1)};
  db_.Insert("p", {one});
  for (const char* child : {"c1", "c2", "g"}) db_.Insert(child, {child_row});
  std::map<std::string, std::vector<Row>> before;
  for (const char* table : {"p", "c1", "c2", "g"}) before[table] = Rows(table);

  Database::StatementResult result = db_.Delete("p", {one});
  EXPECT_EQ(result.error, "delete from c2 violates FK from g");
  EXPECT_EQ(result.rows_affected, 0);
  for (const auto& [table, rows] : before) {
    EXPECT_EQ(Rows(table), rows) << table;
  }
  for (ViewMaintainer* view : views) {
    EXPECT_EQ(view->view().size(), 1);
    std::string diff;
    EXPECT_TRUE(ViewMatchesRecompute(*catalog, view->view_def(), view->view(),
                                     &diff))
        << diff;
  }
}

// Parent deletes find their children through the FK index. Churn on
// emp leaves stale index entries and reused slots behind, the FK is
// declared over existing rows, and the delete names a key twice.
TEST_F(DatabaseTest, RestrictThroughTheIndexRejectsAndChangesNothing) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops"), Dept(3, "hr")});
  db_.Insert("emp", {Emp(10, 1, 1.0), Emp(11, 2, 2.0), Emp(12, 2, 3.0)});
  db_.catalog()->AddForeignKey({"emp", {"e_dept"}, "dept", {"d_id"}});
  db_.Delete("emp", {Row{Value::Int64(10)}, Row{Value::Int64(11)}});
  db_.Insert("emp", {Emp(13, 3, 4.0)});  // reuses a freed slot
  dept_before_ = Rows("dept");
  emp_before_ = Rows("emp");

  // dept 1 lost its only employee; dept 2 still has emp 12.
  Database::StatementResult result = db_.Delete(
      "dept", {Row{Value::Int64(1)}, Row{Value::Int64(2)},
               Row{Value::Int64(2)}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.error, "delete from dept violates FK from emp");
  ExpectUnchangedAndConsistent(*view);

  EXPECT_TRUE(db_.Delete("dept", {Row{Value::Int64(1)}}).ok());
}

TEST_F(DatabaseTest, CascadeThroughTheIndexDeletesEveryChild) {
  ForeignKey fk{"emp", {"e_dept"}, "dept", {"d_id"}};
  fk.cascading_delete = true;
  db_.catalog()->AddForeignKey(fk);
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops"), Dept(3, "hr")});
  for (int64_t i = 0; i < 30; ++i) {
    db_.Insert("emp", {Emp(100 + i, 1 + i % 3, static_cast<double>(i))});
  }
  for (int64_t i = 0; i < 30; i += 4) {
    db_.Delete("emp", {Row{Value::Int64(100 + i)}});
  }
  db_.Insert("emp", {Emp(200, 1, 0.5), Emp(201, 2, 0.5)});
  // What the old full scan found: every emp row of dept 1 or 2.
  std::vector<Row> expected_left;
  db_.catalog()->GetTable("emp")->ForEach([&](const Row& row) {
    if (row[1] == Value::Int64(3)) expected_left.push_back(row);
  });
  const int64_t children =
      db_.catalog()->GetTable("emp")->size() -
      static_cast<int64_t>(expected_left.size());

  Database::StatementResult result = db_.Delete(
      "dept", {Row{Value::Int64(2)}, Row{Value::Int64(1)},
               Row{Value::Int64(1)}});
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.rows_affected, 2 + children);
  EXPECT_EQ(Rows("emp"), expected_left);
  std::string diff;
  EXPECT_TRUE(ViewMatchesRecompute(*db_.catalog(), view->view_def(),
                                   view->view(), &diff))
      << diff;
}

TEST_F(DatabaseTest, NullForeignKeyColumnReferencesNothing) {
  Catalog* catalog = db_.catalog();
  catalog->CreateTable(
      "member",
      Schema({ColumnDef{"m_id", ValueType::kInt64, false},
              ColumnDef{"m_dept", ValueType::kInt64, true}}),
      {"m_id"});
  catalog->AddForeignKey({"member", {"m_dept"}, "dept", {"d_id"}});
  db_.Insert("dept", {Dept(1, "eng")});
  EXPECT_EQ(db_.Insert("member", {Row{Value::Int64(5), Value::Null()}})
                .rows_affected,
            1);

  EXPECT_TRUE(db_.Delete("dept", {Row{Value::Int64(1)}}).ok());
  EXPECT_EQ(catalog->GetTable("dept")->size(), 0);
  EXPECT_EQ(catalog->GetTable("member")->size(), 1);
}

TEST_F(DatabaseTest, ViewsAreMaintainedAcrossStatements) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  EXPECT_EQ(view->view().size(), 0);

  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
  db_.Insert("emp", {Emp(10, 1, 100.0), Emp(11, 3, 50.0)});
  std::string diff;
  ASSERT_TRUE(ViewMatchesRecompute(*db_.catalog(), view->view_def(),
                                   view->view(), &diff))
      << diff;
  // dept 1 joined, dept 2 orphan, emp 11 orphan (dept 3 missing; no FK
  // declared in this test so the insert is allowed).
  EXPECT_EQ(view->view().size(), 3);

  db_.Delete("emp", {Row{Value::Int64(10)}});
  ASSERT_TRUE(ViewMatchesRecompute(*db_.catalog(), view->view_def(),
                                   view->view(), &diff))
      << diff;
}

TEST_F(DatabaseTest, UpdateStatementMaintainsViews) {
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
  db_.Insert("emp", {Emp(10, 1, 100.0)});

  // Move employee 10 from dept 1 to dept 2.
  Database::StatementResult result =
      db_.Update("emp", {Row{Value::Int64(10)}}, {Emp(10, 2, 110.0)});
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.rows_affected, 1);
  std::string diff;
  ASSERT_TRUE(ViewMatchesRecompute(*db_.catalog(), view->view_def(),
                                   view->view(), &diff))
      << diff;

  // Key changes are rejected.
  result = db_.Update("emp", {Row{Value::Int64(10)}}, {Emp(99, 2, 110.0)});
  EXPECT_FALSE(result.ok());
}

TEST_F(DatabaseTest, UpdateOfReferencedParentWithDeclaredFk) {
  // §6 caveat 1 through the facade: the FK would normally allow the
  // "delta-only" shortcut for dept, but an UPDATE pair must not use it.
  db_.catalog()->AddForeignKey({"emp", {"e_dept"}, "dept", {"d_id"}});
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng")});
  db_.Insert("emp", {Emp(10, 1, 100.0)});

  Database::StatementResult result =
      db_.Update("dept", {Row{Value::Int64(1)}}, {Dept(1, "engineering")});
  EXPECT_TRUE(result.ok()) << result.error;
  std::string diff;
  ASSERT_TRUE(ViewMatchesRecompute(*db_.catalog(), view->view_def(),
                                   view->view(), &diff))
      << diff;
  // The renamed department is visible through the view.
  bool found = false;
  view->view().ForEach([&](int64_t, const Row& row) {
    if (row[1] == Value::String("engineering")) found = true;
  });
  EXPECT_TRUE(found);
}

TEST_F(DatabaseTest, UpdateOfParentsWithChildrenRunsTwoConstraintFreeSteps) {
  // An UPDATE is its delete step, then its insert step. Between them the
  // updated departments are gone and their employees are orphans, which
  // the FK plans assume cannot exist, so both steps run constraint-free.
  db_.catalog()->AddForeignKey({"emp", {"e_dept"}, "dept", {"d_id"}});
  ViewMaintainer* view = db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops"), Dept(3, "hr")});
  db_.Insert("emp", {Emp(10, 1, 100.0), Emp(11, 1, 90.0), Emp(20, 2, 80.0)});

  obs::TraceContext trace;
  db_.set_trace(&trace);
  Database::StatementResult result =
      db_.Update("dept",
                 {Row{Value::Int64(1)}, Row{Value::Int64(2)},
                  Row{Value::Int64(3)}},
                 {Dept(1, "eng2"), Dept(2, "ops2"), Dept(3, "hr2")});
  db_.set_trace(nullptr);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.rows_affected, 3);
  std::string diff;
  ASSERT_TRUE(ViewMatchesRecompute(*db_.catalog(), view->view_def(),
                                   view->view(), &diff))
      << diff;
  EXPECT_EQ(view->view().size(), 4);  // three employees and hr

  std::vector<std::string> steps;
  for (const obs::TraceEvent& e : trace.Snapshot()) {
    if (e.name == "ivm.maintain") {
      steps.push_back(*e.StrArg("op") + "/" + *e.StrArg("policy"));
    }
  }
  EXPECT_EQ(steps, (std::vector<std::string>{"delete/cf", "insert/cf"}));
}

TEST_F(DatabaseTest, AggregateViewsThroughStatements) {
  std::vector<AggregateSpec> aggs = {
      {AggregateSpec::Kind::kCountStar, {}, "rows"},
      {AggregateSpec::Kind::kSum, {"emp", "e_salary"}, "payroll"}};
  AggViewMaintainer* agg = db_.CreateAggregateView(
      MakeDeptView(), {{"dept", "d_name"}}, aggs);

  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
  db_.Insert("emp", {Emp(10, 1, 100.0), Emp(11, 1, 50.0)});
  std::string diff;
  ASSERT_TRUE(agg->MatchesRecompute(1e-9, &diff)) << diff;

  db_.Update("emp", {Row{Value::Int64(11)}}, {Emp(11, 2, 75.0)});
  ASSERT_TRUE(agg->MatchesRecompute(1e-9, &diff)) << diff;

  db_.Delete("emp", {Row{Value::Int64(10)}});
  ASSERT_TRUE(agg->MatchesRecompute(1e-9, &diff)) << diff;
}

TEST_F(DatabaseTest, InsertRejectsNullInNotNullColumn) {
  ViewMaintainer* view = SeedForMalformed();
  Database::StatementResult result = db_.Insert(
      "emp", {Row{Value::Int64(12), Value::Null(), Value::Float64(1.0)}});
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.rows_affected, 0);
  EXPECT_EQ(result.rows_rejected, 1);
  ExpectUnchangedAndConsistent(*view);
}

TEST_F(DatabaseTest, DeleteRejectsKeyOfWrongArity) {
  ViewMaintainer* view = SeedForMalformed();
  Database::StatementResult result = db_.Delete(
      "emp", {Row{Value::Int64(10), Value::Int64(1)}, Row{}});
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.rows_affected, 0);
  EXPECT_EQ(result.rows_rejected, 2);
  ExpectUnchangedAndConsistent(*view);
}

TEST_F(DatabaseTest, UpdateRejectsNullInNotNullColumn) {
  ViewMaintainer* view = SeedForMalformed();
  Database::StatementResult result =
      db_.Update("emp", {Row{Value::Int64(10)}},
                 {Row{Value::Int64(10), Value::Null(), Value::Float64(1.0)}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.rows_affected, 0);
  ExpectUnchangedAndConsistent(*view);
}

TEST_F(DatabaseTest, UpdateRejectsShortRowAndKey) {
  ViewMaintainer* view = SeedForMalformed();
  Database::StatementResult result =
      db_.Update("emp", {Row{Value::Int64(10)}}, {Row{}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.rows_affected, 0);
  result = db_.Update("emp", {Row{}}, {Emp(10, 2, 1.0)});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.rows_affected, 0);
  ExpectUnchangedAndConsistent(*view);
}

// Maintenance reads values by their column's type (SUM over a FLOAT64
// column calls AsDouble), so a value whose variant does not match its
// column must be rejected before any mutation.
TEST_F(DatabaseTest, MistypedValuesAreRejected) {
  AggViewMaintainer* payroll = db_.CreateAggregateView(
      MakeDeptView("payroll"), {{"dept", "d_name"}},
      {{AggregateSpec::Kind::kSum, {"emp", "e_salary"}, "payroll"}});
  ViewMaintainer* view = SeedForMalformed();
  auto expect_payroll_consistent = [&] {
    std::string diff;
    EXPECT_TRUE(payroll->MatchesRecompute(1e-9, &diff)) << diff;
  };

  Database::StatementResult result = db_.Insert(
      "emp",
      {Row{Value::Int64(12), Value::Int64(1), Value::String("lots")},
       Row{Value::Int64(13), Value::Float64(1.0), Value::Float64(5.0)},
       Row{Value::String("14"), Value::Int64(1), Value::Float64(5.0)}});
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.rows_affected, 0);
  EXPECT_EQ(result.rows_rejected, 3);
  result = db_.Insert("dept", {Row{Value::Int64(3), Value::Int64(7)}});
  EXPECT_EQ(result.rows_affected, 0);
  EXPECT_EQ(result.rows_rejected, 1);
  result = db_.Update(
      "emp", {Row{Value::Int64(10)}},
      {Row{Value::Int64(10), Value::Int64(1), Value::String("lots")}});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.rows_affected, 0);
  ExpectUnchangedAndConsistent(*view);
  expect_payroll_consistent();

  // FLOAT64 also takes int64, which AsDouble reads.
  result = db_.Insert(
      "emp", {Row{Value::Int64(12), Value::Int64(1), Value::Int64(70)}});
  EXPECT_EQ(result.rows_affected, 1);
  std::string diff;
  EXPECT_TRUE(ViewMatchesRecompute(*db_.catalog(), view->view_def(),
                                   view->view(), &diff))
      << diff;
  expect_payroll_consistent();
}

// Update applies its pairs one after another, so a key named twice
// would hand the maintainers the first pair's new row as the second
// pair's old row, which no view has seen, and would stage a second
// insert of one key for deferred views. The statement must be rejected
// before any mutation, for immediate row, aggregate and deferred views.
TEST_F(DatabaseTest, UpdateRejectsRepeatedKey) {
  AggViewMaintainer* payroll = db_.CreateAggregateView(
      MakeDeptView("payroll"), {{"dept", "d_name"}},
      {{AggregateSpec::Kind::kSum, {"emp", "e_salary"}, "payroll"}});
  ViewMaintainer* lazy = db_.CreateMaterializedView(MakeDeptView("lazy"));
  db_.SetRefreshPolicy("lazy", deferred::RefreshPolicy::kOnDemand);
  ViewMaintainer* view = SeedForMalformed();

  Database::StatementResult result =
      db_.Update("emp", {Row{Value::Int64(10)}, Row{Value::Int64(10)}},
                 {Emp(10, 1, 200.0), Emp(10, 2, 300.0)});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.rows_affected, 0);
  ExpectUnchangedAndConsistent(*view);
  std::string diff;
  EXPECT_TRUE(payroll->MatchesRecompute(1e-9, &diff)) << diff;
  db_.Refresh("lazy");
  ExpectUnchangedAndConsistent(*lazy);
}

// Client calls that name an unknown view, or a view name already in
// use, fail through their return value instead of aborting, and leave
// base tables and every view as they were.
TEST_F(DatabaseTest, RefreshOfUnknownViewReturnsZeroStats) {
  ViewMaintainer* view = SeedForMalformed();
  deferred::RefreshStats stats = db_.Refresh("nope");
  EXPECT_EQ(stats.raw_entries, 0);
  EXPECT_EQ(stats.consolidated_rows, 0);
  EXPECT_EQ(db_.RefreshState("nope").refreshes, 0);
  ExpectUnchangedAndConsistent(*view);
}

TEST_F(DatabaseTest, SetRefreshPolicyOfUnknownViewFails) {
  ViewMaintainer* view = SeedForMalformed();
  EXPECT_FALSE(
      db_.SetRefreshPolicy("nope", deferred::RefreshPolicy::kOnDemand));
  EXPECT_EQ(db_.GetRefreshPolicy("nope"),
            deferred::RefreshPolicy::kImmediate);
  ExpectUnchangedAndConsistent(*view);
}

TEST_F(DatabaseTest, ViewNameInUseIsRejected) {
  ViewMaintainer* view = SeedForMalformed();
  EXPECT_EQ(db_.CreateMaterializedView(MakeDeptView()), nullptr);
  EXPECT_EQ(db_.CreateAggregateView(
                MakeDeptView(), {{"dept", "d_name"}},
                {{AggregateSpec::Kind::kCountStar, {}, "n"}}),
            nullptr);
  EXPECT_EQ(db_.GetView("dept_emp"), view);
  ExpectUnchangedAndConsistent(*view);
}

TEST_F(DatabaseTest, ReadAggregateRelationOfUnknownViewIsInvalid) {
  AggViewMaintainer* payroll = db_.CreateAggregateView(
      MakeDeptView("payroll"), {{"dept", "d_name"}},
      {{AggregateSpec::Kind::kSum, {"emp", "e_salary"}, "payroll"}});
  ViewMaintainer* view = SeedForMalformed();
  EXPECT_FALSE(db_.ReadAggregateRelation("nope").valid());
  // A row view is not an aggregation view either.
  EXPECT_FALSE(db_.ReadAggregateRelation("dept_emp").valid());
  EXPECT_TRUE(db_.ReadAggregateRelation("payroll").valid());
  ExpectUnchangedAndConsistent(*view);
  std::string diff;
  EXPECT_TRUE(payroll->MatchesRecompute(1e-9, &diff)) << diff;
}

TEST_F(DatabaseTest, UnknownTableAndDropView) {
  EXPECT_FALSE(db_.Insert("nope", {Row{}}).ok());
  EXPECT_FALSE(db_.Delete("nope", {}).ok());
  EXPECT_EQ(db_.PendingRows("nope"), 0);
  db_.CreateMaterializedView(MakeDeptView());
  EXPECT_NE(db_.GetView("dept_emp"), nullptr);
  EXPECT_TRUE(db_.DropView("dept_emp"));
  EXPECT_EQ(db_.GetView("dept_emp"), nullptr);
  EXPECT_FALSE(db_.DropView("dept_emp"));
}

}  // namespace
}  // namespace ojv

// Multi-statement transactions with deferred FK checking (§6 caveat 3):
// constraint-violating intermediate states are allowed, Commit validates
// and either finalizes or rolls everything back — base tables and all
// maintained views. Inside a transaction a view catches up only when it
// is read, so mid-transaction checks go through ReadView. Every FK check
// waits for Commit, deferrable or not, so each test runs with both kinds
// of FK; only a non-deferrable one lets the maintainers exploit it.

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "ivm/database.h"

namespace ojv {
namespace {

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

class TransactionTest : public ::testing::TestWithParam<bool> {
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
    ForeignKey fk{"emp", {"e_dept"}, "dept", {"d_id"}};
    fk.deferrable = GetParam();
    db_.catalog()->AddForeignKey(fk);

    RelExprPtr tree = RelExpr::Join(
        JoinKind::kFullOuter, RelExpr::Scan("dept"), RelExpr::Scan("emp"),
        Eq("dept", "d_id", "emp", "e_dept"));
    view_ = db_.CreateMaterializedView(
        ViewDef("dept_emp", tree,
                {{"dept", "d_id"},
                 {"dept", "d_name"},
                 {"emp", "e_id"},
                 {"emp", "e_dept"},
                 {"emp", "e_salary"}},
                *db_.catalog()));
    db_.Insert("dept", {Row{Value::Int64(1), Value::String("eng")}});
    db_.Insert("emp",
               {Row{Value::Int64(10), Value::Int64(1), Value::Float64(100)}});
  }

  void ExpectConsistent(const char* when) {
    std::string diff;
    EXPECT_TRUE(ViewMatchesRecompute(*db_.catalog(), view_->view_def(),
                                     view_->view(), &diff))
        << when << ": " << diff;
  }

  // The read-your-writes path: catches the view up first.
  void ExpectReadConsistent(const char* when) {
    ViewSnapshot snap = db_.ReadView("dept_emp");
    ASSERT_TRUE(snap.valid()) << when;
    std::string diff;
    EXPECT_TRUE(ViewMatchesRecompute(*db_.catalog(), view_->view_def(),
                                     snap.relation(), &diff))
        << when << ": " << diff;
  }

  Database db_;
  ViewMaintainer* view_ = nullptr;
};

TEST_P(TransactionTest, DeferredChecksAllowTemporaryViolations) {
  ASSERT_TRUE(db_.BeginTransaction());
  // Child first, parent second — invalid order outside a transaction.
  EXPECT_EQ(db_.Insert("emp", {Row{Value::Int64(11), Value::Int64(2),
                                   Value::Float64(50)}})
                .rows_affected,
            1);
  ExpectReadConsistent("mid-transaction (violated FK)");
  EXPECT_EQ(db_.Insert("dept", {Row{Value::Int64(2), Value::String("ops")}})
                .rows_affected,
            1);
  Database::StatementResult commit = db_.Commit();
  EXPECT_TRUE(commit.ok()) << commit.error;
  EXPECT_FALSE(db_.in_transaction());
  EXPECT_EQ(db_.catalog()->GetTable("emp")->size(), 2);
  ExpectConsistent("after commit");
}

TEST_P(TransactionTest, CommitViolationRollsEverythingBack) {
  int64_t dept_before = db_.catalog()->GetTable("dept")->size();
  int64_t emp_before = db_.catalog()->GetTable("emp")->size();
  Relation view_before = view_->view().AsRelation();

  ASSERT_TRUE(db_.BeginTransaction());
  db_.Insert("emp", {Row{Value::Int64(12), Value::Int64(99),  // no dept 99
                         Value::Float64(70)}});
  db_.Insert("dept", {Row{Value::Int64(3), Value::String("hr")}});
  db_.Delete("emp", {Row{Value::Int64(10)}});
  db_.Update("dept", {Row{Value::Int64(1)}},
             {Row{Value::Int64(1), Value::String("renamed")}});
  // The read catches the view up inside the transaction, so the
  // rollback below must replay the inverses into it.
  ExpectReadConsistent("mid-transaction");

  Database::StatementResult commit = db_.Commit();
  EXPECT_FALSE(commit.ok());
  EXPECT_NE(commit.error.find("commit aborted"), std::string::npos);
  EXPECT_FALSE(db_.in_transaction());

  // Everything restored: base tables and the view.
  EXPECT_EQ(db_.catalog()->GetTable("dept")->size(), dept_before);
  EXPECT_EQ(db_.catalog()->GetTable("emp")->size(), emp_before);
  EXPECT_NE(db_.catalog()->GetTable("emp")->FindByKey(Row{Value::Int64(10)}),
            nullptr);
  EXPECT_EQ((*db_.catalog()->GetTable("dept")->FindByKey(
                Row{Value::Int64(1)}))[1],
            Value::String("eng"));
  std::string diff;
  EXPECT_TRUE(SameBag(view_before, view_->view().AsRelation(), &diff))
      << diff;
  ExpectConsistent("after rollback");
}

TEST_P(TransactionTest, ExplicitRollback) {
  Relation view_before = view_->view().AsRelation();
  const uint64_t generation = db_.AcquireSnapshot("dept_emp").generation();
  ASSERT_TRUE(db_.BeginTransaction());
  db_.Delete("emp", {Row{Value::Int64(10)}});
  db_.Delete("dept", {Row{Value::Int64(1)}});  // no child check: deferred
  EXPECT_EQ(db_.catalog()->GetTable("dept")->size(), 0);
  db_.Rollback();
  EXPECT_FALSE(db_.in_transaction());
  EXPECT_EQ(db_.catalog()->GetTable("dept")->size(), 1);
  EXPECT_EQ(db_.catalog()->GetTable("emp")->size(), 1);
  std::string diff;
  EXPECT_TRUE(SameBag(view_before, view_->view().AsRelation(), &diff))
      << diff;
  // The view did not read inside the transaction: its forward and
  // inverse entries cancel, so nothing was maintained or republished.
  EXPECT_EQ(db_.AcquireSnapshot("dept_emp").generation(), generation);
  EXPECT_EQ(db_.DeltaLogSize(), 0);
}

TEST_P(TransactionTest, ViewsCatchUpAtCommitNotBefore) {
  ASSERT_TRUE(db_.BeginTransaction());
  db_.Insert("dept", {Row{Value::Int64(2), Value::String("ops")}});
  db_.Insert("emp",
             {Row{Value::Int64(11), Value::Int64(2), Value::Float64(50)}});
  // The statements only applied and logged their changes.
  EXPECT_EQ(view_->view().size(), 1);
  EXPECT_EQ(db_.PendingRows("dept_emp"), 2);
  ASSERT_TRUE(db_.Commit().ok());
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);
  EXPECT_EQ(db_.DeltaLogSize(), 0);
  ExpectConsistent("after commit");
}

TEST_P(TransactionTest, RollbackAfterReadingADanglingChild) {
  ASSERT_TRUE(db_.BeginTransaction());
  db_.Insert("emp", {Row{Value::Int64(11), Value::Int64(2),  // no dept 2
                         Value::Float64(50)}});
  ExpectReadConsistent("mid-transaction (violated FK)");
  ASSERT_TRUE(db_.Rollback());
  // The view replays the delete of the dangling child, which the FK
  // plans would assume had a department.
  ExpectConsistent("after rollback");
}

TEST_P(TransactionTest, RollbackWithoutTransactionFails) {
  EXPECT_FALSE(db_.Rollback());
  EXPECT_FALSE(db_.in_transaction());
  EXPECT_EQ(db_.catalog()->GetTable("dept")->size(), 1);
  EXPECT_EQ(db_.catalog()->GetTable("emp")->size(), 1);
  ExpectConsistent("after a rollback with no transaction");
}

TEST_P(TransactionTest, NestedBeginAndEmptyCommit) {
  ASSERT_TRUE(db_.BeginTransaction());
  EXPECT_FALSE(db_.BeginTransaction());
  EXPECT_TRUE(db_.Commit().ok());
  EXPECT_FALSE(db_.Commit().ok());  // nothing open
}

INSTANTIATE_TEST_SUITE_P(Fk, TransactionTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Deferrable" : "NotDeferrable";
                         });

}  // namespace
}  // namespace ojv

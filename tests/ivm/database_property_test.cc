// Property test for the statement-level facade including transactions:
// random statements, randomly grouped into transactions that randomly
// commit or roll back, validated against a shadow catalog that applies
// only the surviving statements. Views must always equal a recompute of
// the *real* catalog, and after every commit/rollback the real catalog
// must equal the shadow. Fresh reads inside a transaction catch the view
// up mid-transaction, so a rollback either cancels the transaction's
// entries (no read) or replays their inverses into the view (a read).

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "ivm/database.h"
#include "test_util.h"

namespace ojv {
namespace {

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

void CreateWorldSchema(Catalog* catalog, bool deferrable_fk) {
  catalog->CreateTable(
      "P",
      Schema({ColumnDef{"p_id", ValueType::kInt64, false},
              ColumnDef{"p_a", ValueType::kInt64, true}}),
      {"p_id"});
  catalog->CreateTable(
      "C",
      Schema({ColumnDef{"c_id", ValueType::kInt64, false},
              ColumnDef{"c_fk", ValueType::kInt64, false},
              ColumnDef{"c_a", ValueType::kInt64, true}}),
      {"c_id"});
  ForeignKey fk{"C", {"c_fk"}, "P", {"p_id"}};
  fk.deferrable = deferrable_fk;
  catalog->AddForeignKey(fk);
}

ViewDef MakeWorldView(const Catalog& catalog) {
  RelExprPtr tree = RelExpr::Join(JoinKind::kFullOuter, RelExpr::Scan("P"),
                                  RelExpr::Scan("C"),
                                  Eq("P", "p_id", "C", "c_fk"));
  return ViewDef("pc", tree,
                 {{"P", "p_id"}, {"P", "p_a"}, {"C", "c_id"},
                  {"C", "c_fk"}, {"C", "c_a"}},
                 catalog);
}

// One random statement description, applicable to any Database.
struct Stmt {
  enum class Kind { kInsertP, kInsertC, kDeleteC, kUpdateC } kind;
  std::vector<Row> rows;  // full rows (kInsert*/kUpdateC new rows)
  std::vector<Row> keys;  // kDeleteC / kUpdateC
};

class DatabasePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DatabasePropertyTest, TransactionsAgreeWithShadowModel) {
  const uint64_t seed = GetParam();
  Rng rng(seed);

  Database real;
  CreateWorldSchema(real.catalog(), /*deferrable_fk=*/true);
  ViewMaintainer* view = real.CreateMaterializedView(
      MakeWorldView(*real.catalog()));

  // Shadow: no views, statements applied only when they survive.
  Database shadow;
  CreateWorldSchema(shadow.catalog(), /*deferrable_fk=*/true);

  // Seed data.
  int64_t next_key = 1;
  for (int i = 0; i < 8; ++i) {
    Row p{Value::Int64(next_key++), Value::Int64(rng.Uniform(0, 4))};
    real.Insert("P", {p});
    shadow.Insert("P", {p});
  }
  view = real.GetView("pc");

  auto random_statement = [&](Database& db) {
    Stmt stmt;
    switch (rng.Uniform(0, 3)) {
      case 0:
        stmt.kind = Stmt::Kind::kInsertP;
        stmt.rows = {Row{Value::Int64(next_key++),
                         Value::Int64(rng.Uniform(0, 4))}};
        break;
      case 1: {
        stmt.kind = Stmt::Kind::kInsertC;
        // Mostly valid parents; sometimes dangling (exercises deferred
        // checks and rollbacks).
        int64_t parent = rng.Chance(0.75)
                             ? 1 + rng.Uniform(0, next_key - 2)
                             : 900000 + rng.Uniform(0, 5);
        stmt.rows = {Row{Value::Int64(next_key++), Value::Int64(parent),
                         Value::Int64(rng.Uniform(0, 4))}};
        break;
      }
      case 2: {
        stmt.kind = Stmt::Kind::kDeleteC;
        stmt.keys = testing_util::SampleKeys(*db.catalog()->GetTable("C"),
                                             &rng, 1);
        break;
      }
      default: {
        stmt.kind = Stmt::Kind::kUpdateC;
        stmt.keys = testing_util::SampleKeys(*db.catalog()->GetTable("C"),
                                             &rng, 1);
        if (!stmt.keys.empty()) {
          Row row = *db.catalog()->GetTable("C")->FindByKey(stmt.keys[0]);
          row[2] = Value::Int64(rng.Uniform(0, 4));
          stmt.rows = {std::move(row)};
        }
        break;
      }
    }
    return stmt;
  };

  auto apply = [&](Database& db, const Stmt& stmt) {
    switch (stmt.kind) {
      case Stmt::Kind::kInsertP:
        return db.Insert("P", stmt.rows);
      case Stmt::Kind::kInsertC:
        return db.Insert("C", stmt.rows);
      case Stmt::Kind::kDeleteC:
        return db.Delete("C", stmt.keys);
      case Stmt::Kind::kUpdateC:
        if (stmt.keys.empty()) return Database::StatementResult{};
        return db.Update("C", stmt.keys, stmt.rows);
    }
    return Database::StatementResult{};
  };

  auto expect_same_tables = [&](const char* when) {
    for (const char* name : {"P", "C"}) {
      ASSERT_EQ(real.catalog()->GetTable(name)->size(),
                shadow.catalog()->GetTable(name)->size())
          << when << " table " << name << " seed " << seed;
      std::vector<Row> a = real.catalog()->GetTable(name)->Snapshot();
      std::vector<Row> b = shadow.catalog()->GetTable(name)->Snapshot();
      SortRows(&a);
      SortRows(&b);
      ASSERT_EQ(a, b) << when << " table " << name << " seed " << seed;
    }
    std::string diff;
    ASSERT_TRUE(ViewMatchesRecompute(*real.catalog(), view->view_def(),
                                     view->view(), &diff))
        << when << " seed " << seed << ": " << diff;
  };

  for (int round = 0; round < 12; ++round) {
    if (rng.Chance(0.5)) {
      // A transaction of 1..4 statements; intentions recorded so the
      // shadow can replay them only if the commit succeeds.
      ASSERT_TRUE(real.BeginTransaction());
      std::vector<Stmt> stmts;
      int n = static_cast<int>(rng.Uniform(1, 4));
      for (int i = 0; i < n; ++i) {
        Stmt stmt = random_statement(real);
        apply(real, stmt);
        stmts.push_back(std::move(stmt));
        if (rng.Chance(0.3)) {
          ViewSnapshot snap = real.ReadView("pc");
          ASSERT_TRUE(snap.valid());
          std::string diff;
          ASSERT_TRUE(ViewMatchesRecompute(*real.catalog(), view->view_def(),
                                           snap.relation(), &diff))
              << "fresh read in txn, seed " << seed << ": " << diff;
        }
      }
      bool explicit_rollback = rng.Chance(0.25);
      if (explicit_rollback) {
        real.Rollback();
      } else if (real.Commit().ok()) {
        // Survived: replay on the shadow (checks there must pass, since
        // the whole transaction validated).
        for (const Stmt& stmt : stmts) {
          Database::StatementResult r = apply(shadow, stmt);
          ASSERT_TRUE(r.ok()) << r.error;
        }
      }
      expect_same_tables("after txn");
    } else {
      // Autocommit statement: apply to both; row-wise rejections must
      // agree (same FK state on both sides).
      Stmt stmt = random_statement(real);
      Database::StatementResult r1 = apply(real, stmt);
      Database::StatementResult r2 = apply(shadow, stmt);
      ASSERT_EQ(r1.ok(), r2.ok());
      ASSERT_EQ(r1.rows_affected, r2.rows_affected);
      expect_same_tables("after autocommit");
    }
    // The only view is eager: once no transaction is open, nothing
    // waits in the delta log.
    ASSERT_EQ(real.DeltaLogSize(), 0) << "round " << round << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTraffic, DatabasePropertyTest,
                         ::testing::Range<uint64_t>(801, 831));

}  // namespace
}  // namespace ojv

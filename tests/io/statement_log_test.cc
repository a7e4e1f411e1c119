// Statement log + replay: a logged statement stream replayed against a
// catalog snapshot reproduces the exact database and view state —
// durability for the maintained-view story.

#include "io/statement_log.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "baseline/recompute.h"
#include "io/csv.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/tpch_schema.h"
#include "tpch/views.h"

namespace ojv {
namespace io {
namespace {

class StatementLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ojv_log_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(StatementLogTest, LogAndReplayReproducesState) {
  // Primary database: snapshot, then apply logged traffic.
  Database primary;
  tpch::CreateSchema(primary.catalog());
  tpch::DbgenOptions options;
  options.scale_factor = 0.002;
  tpch::Dbgen dbgen(options);
  dbgen.Populate(primary.catalog());

  std::string error;
  ASSERT_TRUE(DumpCatalog(*primary.catalog(), Path("snapshot"), TextFormat(),
                          &error))
      << error;
  primary.CreateMaterializedView(tpch::MakeOjView(*primary.catalog()));

  StatementLog log(Path("statements.log"));
  ASSERT_TRUE(log.ok());
  tpch::RefreshStream refresh(primary.catalog(), &dbgen, 17);

  // Mixed traffic, logged as it is applied.
  {
    std::vector<Row> rows = refresh.NewLineitems(150);
    log.LogInsert(*primary.catalog()->GetTable("lineitem"), rows);
    ASSERT_TRUE(primary.Insert("lineitem", rows).ok());
  }
  {
    std::vector<Row> keys = refresh.PickLineitemDeleteKeys(60);
    log.LogDelete(*primary.catalog()->GetTable("lineitem"), keys);
    ASSERT_TRUE(primary.Delete("lineitem", keys).ok());
  }
  {
    // Update one part row (string column with awkward characters).
    const Table* part = primary.catalog()->GetTable("part");
    Row some;
    part->ForEach([&](const Row& row) {
      if (some.empty()) some = row;
    });
    Row updated = some;
    updated[1] = Value::String("pipe|and\\slash\nnewline");
    std::vector<Row> keys = {Row{some[0]}};
    std::vector<Row> new_rows = {updated};
    log.LogUpdate(*part, keys, new_rows);
    ASSERT_TRUE(primary.Update("part", keys, new_rows).ok());
  }
  {
    std::vector<Row> rows = refresh.NewCustomers(20);
    log.LogInsert(*primary.catalog()->GetTable("customer"), rows);
    ASSERT_TRUE(primary.Insert("customer", rows).ok());
  }
  log.Flush();

  // Replica: load the snapshot, register the same view, replay the log.
  Database replica;
  tpch::CreateSchema(replica.catalog());
  ASSERT_TRUE(LoadCatalog(replica.catalog(), Path("snapshot"), TextFormat(),
                          &error))
      << error;
  replica.CreateMaterializedView(tpch::MakeOjView(*replica.catalog()));
  ASSERT_TRUE(ReplayStatementLog(Path("statements.log"), &replica, &error))
      << error;

  // Identical base tables and identical (incrementally maintained) views.
  for (const std::string& name : primary.catalog()->TableNames()) {
    EXPECT_EQ(replica.catalog()->GetTable(name)->size(),
              primary.catalog()->GetTable(name)->size())
        << name;
  }
  std::string diff;
  EXPECT_TRUE(SameBag(primary.GetView("oj_view")->view().AsRelation(),
                      replica.GetView("oj_view")->view().AsRelation(), &diff))
      << diff;
  EXPECT_TRUE(ViewMatchesRecompute(*replica.catalog(),
                                   replica.GetView("oj_view")->view_def(),
                                   replica.GetView("oj_view")->view(), &diff))
      << diff;
}

TEST_F(StatementLogTest, ReplayErrors) {
  Database db;
  tpch::CreateSchema(db.catalog());
  std::string error;
  EXPECT_FALSE(ReplayStatementLog(Path("missing.log"), &db, &error));

  {
    std::ofstream out(Path("garbage.log"));
    out << "not a header\n";
  }
  EXPECT_FALSE(ReplayStatementLog(Path("garbage.log"), &db, &error));
  EXPECT_NE(error.find("#stmt"), std::string::npos);

  {
    std::ofstream out(Path("badtable.log"));
    out << "#stmt INSERT nowhere 1\n1|2|\n";
  }
  EXPECT_FALSE(ReplayStatementLog(Path("badtable.log"), &db, &error));
  EXPECT_NE(error.find("unknown table"), std::string::npos);

  {
    std::ofstream out(Path("short.log"));
    out << "#stmt INSERT part 3\n";  // payload missing
  }
  EXPECT_FALSE(ReplayStatementLog(Path("short.log"), &db, &error));
  EXPECT_NE(error.find("payload"), std::string::npos);
}

TEST_F(StatementLogTest, MalformedDateFailsTheReplay) {
  Database db;
  db.catalog()->CreateTable(
      "d",
      Schema({ColumnDef{"id", ValueType::kInt64, false},
              ColumnDef{"day", ValueType::kDate, true}}),
      {"id"});
  for (const char* bad : {"1995-13-01", "1995-01-32", "never"}) {
    {
      std::ofstream out(Path("bad_date.log"));
      out << "#stmt INSERT d 1\n1|" << bad << "\n";
    }
    std::string error;
    EXPECT_FALSE(ReplayStatementLog(Path("bad_date.log"), &db, &error)) << bad;
    EXPECT_NE(error.find("bad INSERT payload"), std::string::npos) << error;
    EXPECT_EQ(db.catalog()->GetTable("d")->size(), 0);
  }
}

}  // namespace
}  // namespace io
}  // namespace ojv

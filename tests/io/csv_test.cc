// Delimited-text I/O: dbgen-style .tbl round trips, CSV quoting, NULL
// markers, error reporting, catalog dump/load.

#include "io/csv.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/date.h"
#include "exec/evaluator.h"
#include "baseline/recompute.h"
#include "ivm/maintainer.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/views.h"
#include "tpch/tpch_schema.h"

namespace ojv {
namespace io {
namespace {

class CsvTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ojv_csv_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::string ReadAll(const std::string& path) {
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::filesystem::path dir_;
};

Table MakeSample() {
  Table t("sample",
          Schema({ColumnDef{"id", ValueType::kInt64, false},
                  ColumnDef{"name", ValueType::kString, true},
                  ColumnDef{"price", ValueType::kFloat64, true},
                  ColumnDef{"day", ValueType::kDate, true}}),
          {"id"});
  t.Insert(Row{Value::Int64(1), Value::String("widget"),
               Value::Float64(12.5), Value::Date(ParseDate("1994-06-01"))});
  t.Insert(Row{Value::Int64(2), Value::Null(), Value::Null(), Value::Null()});
  return t;
}

TEST_F(CsvTest, TblRoundTrip) {
  Table original = MakeSample();
  TextFormat format;  // dbgen style
  std::string error;
  ASSERT_TRUE(WriteTable(original, Path("sample.tbl"), format, &error))
      << error;

  std::string content = ReadAll(Path("sample.tbl"));
  EXPECT_NE(content.find("1|widget|12.50|1994-06-01|"), std::string::npos);
  EXPECT_NE(content.find("2|\\N|\\N|\\N|"), std::string::npos);

  Table reloaded("sample2",
                 Schema({ColumnDef{"id", ValueType::kInt64, false},
                         ColumnDef{"name", ValueType::kString, true},
                         ColumnDef{"price", ValueType::kFloat64, true},
                         ColumnDef{"day", ValueType::kDate, true}}),
                 {"id"});
  ASSERT_TRUE(LoadTable(&reloaded, Path("sample.tbl"), format, &error))
      << error;
  EXPECT_EQ(reloaded.Snapshot(), original.Snapshot());
}

TEST_F(CsvTest, CsvWithHeaderAndQuoting) {
  Table t("q",
          Schema({ColumnDef{"id", ValueType::kInt64, false},
                  ColumnDef{"text", ValueType::kString, true}}),
          {"id"});
  t.Insert(Row{Value::Int64(1), Value::String("a,b")});
  t.Insert(Row{Value::Int64(2), Value::String("say \"hi\"")});

  TextFormat format;
  format.delimiter = ',';
  format.header = true;
  format.trailing_delimiter = false;
  std::string error;
  ASSERT_TRUE(WriteTable(t, Path("q.csv"), format, &error)) << error;
  std::string content = ReadAll(Path("q.csv"));
  EXPECT_NE(content.find("id,text"), std::string::npos);
  EXPECT_NE(content.find("\"a,b\""), std::string::npos);
  EXPECT_NE(content.find("\"say \"\"hi\"\"\""), std::string::npos);

  Table back("q2",
             Schema({ColumnDef{"id", ValueType::kInt64, false},
                     ColumnDef{"text", ValueType::kString, true}}),
             {"id"});
  ASSERT_TRUE(LoadTable(&back, Path("q.csv"), format, &error)) << error;
  EXPECT_EQ(back.Snapshot(), t.Snapshot());
}

TEST_F(CsvTest, EmptyStringIsNotNull) {
  Table t("s",
          Schema({ColumnDef{"id", ValueType::kInt64, false},
                  ColumnDef{"text", ValueType::kString, true}}),
          {"id"});
  t.Insert(Row{Value::Int64(1), Value::String("")});
  t.Insert(Row{Value::Int64(2), Value::Null()});
  TextFormat format;
  std::string error;
  ASSERT_TRUE(WriteTable(t, Path("empty.tbl"), format, &error)) << error;
  Table back("s2",
             Schema({ColumnDef{"id", ValueType::kInt64, false},
                     ColumnDef{"text", ValueType::kString, true}}),
             {"id"});
  ASSERT_TRUE(LoadTable(&back, Path("empty.tbl"), format, &error)) << error;
  const Row* one = back.FindByKey(Row{Value::Int64(1)});
  ASSERT_NE(one, nullptr);
  EXPECT_TRUE((*one)[1].is_string());
  EXPECT_EQ((*one)[1].string(), "");
  const Row* two = back.FindByKey(Row{Value::Int64(2)});
  ASSERT_NE(two, nullptr);
  EXPECT_TRUE((*two)[1].is_null());
}

TEST_F(CsvTest, NullMarkerLookalikeStringSurvives) {
  Table t("m",
          Schema({ColumnDef{"id", ValueType::kInt64, false},
                  ColumnDef{"text", ValueType::kString, true}}),
          {"id"});
  t.Insert(Row{Value::Int64(1), Value::String("\\N")});
  TextFormat format;
  std::string error;
  ASSERT_TRUE(WriteTable(t, Path("marker.tbl"), format, &error)) << error;
  Table back("m2",
             Schema({ColumnDef{"id", ValueType::kInt64, false},
                     ColumnDef{"text", ValueType::kString, true}}),
             {"id"});
  ASSERT_TRUE(LoadTable(&back, Path("marker.tbl"), format, &error)) << error;
  const Row* row = back.FindByKey(Row{Value::Int64(1)});
  ASSERT_NE(row, nullptr);
  ASSERT_TRUE((*row)[1].is_string());
  EXPECT_EQ((*row)[1].string(), "\\N");
}

TEST_F(CsvTest, LoadErrors) {
  Table t("e",
          Schema({ColumnDef{"id", ValueType::kInt64, false},
                  ColumnDef{"v", ValueType::kInt64, true}}),
          {"id"});
  TextFormat format;
  std::string error;

  {
    std::ofstream out(Path("bad_arity.tbl"));
    out << "1|2|3|\n";
  }
  EXPECT_FALSE(LoadTable(&t, Path("bad_arity.tbl"), format, &error));
  EXPECT_NE(error.find("expected 2 fields"), std::string::npos);

  {
    std::ofstream out(Path("bad_int.tbl"));
    out << "1|oops|\n";
  }
  EXPECT_FALSE(LoadTable(&t, Path("bad_int.tbl"), format, &error));
  EXPECT_NE(error.find("cannot parse"), std::string::npos);

  {
    std::ofstream out(Path("null_key.tbl"));
    out << "\\N|5|\n";
  }
  EXPECT_FALSE(LoadTable(&t, Path("null_key.tbl"), format, &error));
  EXPECT_NE(error.find("non-nullable"), std::string::npos);

  {
    std::ofstream out(Path("dup.tbl"));
    out << "7|1|\n7|2|\n";
  }
  EXPECT_FALSE(LoadTable(&t, Path("dup.tbl"), format, &error));
  EXPECT_NE(error.find("duplicate key"), std::string::npos);

  EXPECT_FALSE(LoadTable(&t, Path("missing.tbl"), format, &error));
}

TEST_F(CsvTest, MalformedDateFailsTheLoad) {
  TextFormat format;
  std::string error;
  for (const char* bad : {"1996-14-01", "1996-01-32", "someday"}) {
    Table t("d",
            Schema({ColumnDef{"id", ValueType::kInt64, false},
                    ColumnDef{"day", ValueType::kDate, true}}),
            {"id"});
    {
      std::ofstream out(Path("bad_date.tbl"));
      out << "1|1996-01-01|\n2|" << bad << "|\n";
    }
    EXPECT_FALSE(LoadTable(&t, Path("bad_date.tbl"), format, &error)) << bad;
    EXPECT_NE(error.find("cannot parse"), std::string::npos) << error;
    EXPECT_NE(error.find(bad), std::string::npos) << error;
  }
}

TEST_F(CsvTest, CatalogDumpAndReload) {
  Catalog catalog;
  tpch::CreateSchema(&catalog);
  tpch::DbgenOptions options;
  options.scale_factor = 0.001;
  tpch::Dbgen dbgen(options);
  dbgen.Populate(&catalog);

  TextFormat format;
  std::string error;
  ASSERT_TRUE(DumpCatalog(catalog, (dir_ / "dump").string(), format, &error))
      << error;

  Catalog reloaded;
  tpch::CreateSchema(&reloaded);
  ASSERT_TRUE(
      LoadCatalog(&reloaded, (dir_ / "dump").string(), format, &error))
      << error;
  for (const std::string& name : catalog.TableNames()) {
    EXPECT_EQ(reloaded.GetTable(name)->size(), catalog.GetTable(name)->size())
        << name;
  }
  // FK integrity survives the round trip.
  std::string violation;
  EXPECT_TRUE(reloaded.CheckForeignKeys(&violation)) << violation;
  // Lineitem rows identical (dates, floats, strings round-trip).
  EXPECT_EQ(reloaded.GetTable("lineitem")->Snapshot(),
            catalog.GetTable("lineitem")->Snapshot());
}

TEST_F(CsvTest, WriteRelationIncludesTaggedHeader) {
  Table t = MakeSample();
  Relation rel(Evaluator::SchemaFor(t));
  t.ForEach([&](const Row& row) { rel.Add(row); });
  TextFormat format;
  std::string error;
  ASSERT_TRUE(WriteRelation(rel, Path("rel.tbl"), format, &error)) << error;
  std::string content = ReadAll(Path("rel.tbl"));
  EXPECT_NE(content.find("sample.id|sample.name"), std::string::npos);
}

TEST_F(CsvTest, ViewSaveAndWarmRestart) {
  // Materialize a view, persist it, restart a fresh maintainer from the
  // file, and continue maintaining — without the initial recomputation.
  Catalog catalog;
  tpch::CreateSchema(&catalog);
  tpch::DbgenOptions options;
  options.scale_factor = 0.002;
  tpch::Dbgen dbgen(options);
  dbgen.Populate(&catalog);

  ViewDef view = tpch::MakeOjView(catalog);
  ViewMaintainer first(&catalog, view, MaintenanceOptions());
  first.InitializeView();
  TextFormat format;
  std::string error;
  ASSERT_TRUE(WriteRelation(first.view().AsRelation(), Path("view.tbl"),
                            format, &error))
      << error;

  ViewMaintainer second(&catalog, view, MaintenanceOptions());
  std::vector<Row> rows;
  ASSERT_TRUE(LoadRelationRows(Path("view.tbl"), view.output_schema(), format,
                               &rows, &error))
      << error;
  second.RestoreView(rows);
  EXPECT_EQ(second.view().size(), first.view().size());

  // Maintenance continues from the restored state.
  tpch::RefreshStream refresh(&catalog, &dbgen, 91);
  std::vector<Row> inserted = ApplyBaseInsert(catalog.GetTable("lineitem"),
                                              refresh.NewLineitems(120));
  second.OnInsert("lineitem", inserted);
  std::string diff;
  EXPECT_TRUE(ViewMatchesRecompute(catalog, view, second.view(), &diff))
      << diff;

  // A schema-mismatched file is rejected.
  std::vector<Row> bogus;
  EXPECT_FALSE(LoadRelationRows(Path("view.tbl"),
                                tpch::MakeV3(catalog).output_schema(), format,
                                &bogus, &error));
  EXPECT_NE(error.find("header"), std::string::npos);
}

}  // namespace
}  // namespace io
}  // namespace ojv

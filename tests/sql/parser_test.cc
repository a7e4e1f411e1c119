// The SQL view-definition dialect: the paper's views written as text
// must parse into exactly the trees the hand-built definitions produce,
// aggregation views parse into group-by + aggregate specs, and errors
// are reported with useful messages.

#include "sql/parser.h"

#include <gtest/gtest.h>

#include "baseline/recompute.h"
#include "common/rng.h"
#include "ivm/database.h"
#include "ivm/maintainer.h"
#include "sql/lexer.h"
#include "tpch/dbgen.h"
#include "tpch/refresh.h"
#include "tpch/tpch_schema.h"
#include "tpch/views.h"

namespace ojv {
namespace sql {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override { tpch::CreateSchema(&catalog_); }

  ParsedView MustParse(const std::string& text) {
    std::string error;
    std::optional<ParsedView> parsed = ParseCreateView(text, catalog_, &error);
    EXPECT_TRUE(parsed.has_value()) << error << "\nsql: " << text;
    return std::move(*parsed);
  }

  std::string MustFail(const std::string& text) {
    std::string error;
    std::optional<ParsedView> parsed = ParseCreateView(text, catalog_, &error);
    EXPECT_FALSE(parsed.has_value()) << "sql: " << text;
    EXPECT_FALSE(error.empty());
    return error;
  }

  Catalog catalog_;
};

TEST(LexerTest, TokenKinds) {
  std::vector<Token> tokens;
  std::string error;
  ASSERT_TRUE(Lex("SELECT p_name, 'it''s' FROM part WHERE p_size >= 2.5",
                  &tokens, &error))
      << error;
  EXPECT_EQ(tokens[0].kind, TokenKind::kKeyword);
  EXPECT_EQ(tokens[0].text, "SELECT");
  EXPECT_EQ(tokens[1].kind, TokenKind::kIdentifier);
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, "it's");
  EXPECT_EQ(tokens[8].text, ">=");
  EXPECT_EQ(tokens[9].kind, TokenKind::kNumber);
  EXPECT_EQ(tokens.back().kind, TokenKind::kEnd);
}

TEST(LexerTest, Errors) {
  std::vector<Token> tokens;
  std::string error;
  EXPECT_FALSE(Lex("SELECT 'oops", &tokens, &error));
  EXPECT_NE(error.find("unterminated"), std::string::npos);
  EXPECT_FALSE(Lex("SELECT #", &tokens, &error));
  EXPECT_NE(error.find("unexpected character"), std::string::npos);
}

TEST_F(ParserTest, Example1ViewMatchesHandBuiltDefinition) {
  ParsedView parsed = MustParse(R"sql(
      CREATE VIEW oj_view AS
      SELECT p_partkey, p_name, p_retailprice, o_orderkey, o_custkey,
             l_orderkey, l_linenumber, l_quantity, l_extendedprice
      FROM part FULL OUTER JOIN
           (orders LEFT OUTER JOIN lineitem ON l_orderkey = o_orderkey)
           ON p_partkey = l_partkey)sql");
  EXPECT_FALSE(parsed.is_aggregate);
  ViewDef reference = tpch::MakeOjView(catalog_);
  EXPECT_EQ(parsed.view.tree()->ToString(), reference.tree()->ToString());
  EXPECT_EQ(parsed.view.output().size(), reference.output().size());
  EXPECT_EQ(parsed.view.name(), "oj_view");
}

TEST_F(ParserTest, V3ParsesWithDerivedTableAndPredicates) {
  ParsedView parsed = MustParse(R"sql(
      CREATE VIEW v3 AS
      SELECT l_orderkey, l_linenumber, l_quantity, l_extendedprice,
             l_shipdate, l_returnflag, o_orderkey, o_orderdate, o_clerk,
             c_custkey, c_nationkey, c_mktsegment, p_partkey, p_type,
             p_retailprice
      FROM ((SELECT * FROM lineitem JOIN orders
               ON l_orderkey = o_orderkey
               AND o_orderdate BETWEEN DATE '1994-06-01' AND DATE '1994-12-31')
            RIGHT OUTER JOIN customer ON c_custkey = o_custkey)
           FULL OUTER JOIN part
             ON l_partkey = p_partkey AND p_retailprice < 2000)sql");
  // Same four terms as the hand-built V3 (Table 1).
  std::vector<Term> terms = ComputeJdnf(parsed.view.tree(), catalog_);
  std::set<std::string> labels;
  for (const Term& t : terms) labels.insert(t.Label());
  EXPECT_EQ(labels,
            (std::set<std::string>{"{customer,lineitem,orders,part}",
                                   "{customer,lineitem,orders}", "{customer}",
                                   "{part}"}));
}

TEST_F(ParserTest, ParsedViewIsMaintainable) {
  tpch::DbgenOptions options;
  options.scale_factor = 0.002;
  tpch::Dbgen dbgen(options);
  dbgen.Populate(&catalog_);
  tpch::RefreshStream refresh(&catalog_, &dbgen, 11);

  ParsedView parsed = MustParse(
      "CREATE VIEW ol AS SELECT * FROM orders LEFT JOIN lineitem "
      "ON o_orderkey = l_orderkey");
  ViewMaintainer maintainer(&catalog_, parsed.view, MaintenanceOptions());
  maintainer.InitializeView();
  std::vector<Row> inserted = ApplyBaseInsert(catalog_.GetTable("lineitem"),
                                              refresh.NewLineitems(100));
  maintainer.OnInsert("lineitem", inserted);
  std::string diff;
  EXPECT_TRUE(ViewMatchesRecompute(catalog_, parsed.view, maintainer.view(),
                                   &diff))
      << diff;
}

TEST_F(ParserTest, MissingKeysAreAppendedAutomatically) {
  ParsedView parsed = MustParse(
      "CREATE VIEW v AS SELECT o_clerk FROM orders");
  // o_orderkey appended so the view outputs the table's key.
  EXPECT_TRUE(parsed.view.output_schema().HasFullKey("orders"));
}

TEST_F(ParserTest, UnqualifiedColumnsResolveWhenUnique) {
  ParsedView parsed = MustParse(
      "CREATE VIEW v AS SELECT o_orderkey, c_name FROM orders "
      "JOIN customer ON o_custkey = c_custkey");
  EXPECT_EQ(parsed.view.output()[0].table, "orders");
  EXPECT_EQ(parsed.view.output()[1].table, "customer");
}

TEST_F(ParserTest, QualifiedColumnsAndWhereClause) {
  ParsedView parsed = MustParse(
      "CREATE VIEW v AS SELECT orders.o_orderkey FROM orders "
      "WHERE orders.o_totalprice > 1000 AND o_orderstatus = 'O'");
  EXPECT_EQ(parsed.view.tree()->kind(), RelKind::kSelect);
  EXPECT_EQ(SplitConjuncts(parsed.view.tree()->predicate()).size(), 2u);
}

TEST_F(ParserTest, AggregateViewParses) {
  ParsedView parsed = MustParse(R"sql(
      CREATE VIEW seg_sales AS
      SELECT c_mktsegment, COUNT(*) AS rows, COUNT(l_orderkey),
             SUM(l_extendedprice) AS revenue
      FROM customer LEFT JOIN
           (SELECT * FROM orders JOIN lineitem ON l_orderkey = o_orderkey)
           ON c_custkey = o_custkey
      GROUP BY c_mktsegment)sql");
  EXPECT_TRUE(parsed.is_aggregate);
  ASSERT_EQ(parsed.group_by.size(), 1u);
  EXPECT_EQ(parsed.group_by[0].column, "c_mktsegment");
  ASSERT_EQ(parsed.aggregates.size(), 3u);
  EXPECT_EQ(parsed.aggregates[0].kind, AggregateSpec::Kind::kCountStar);
  EXPECT_EQ(parsed.aggregates[0].name, "rows");
  EXPECT_EQ(parsed.aggregates[1].kind, AggregateSpec::Kind::kCount);
  EXPECT_EQ(parsed.aggregates[1].name, "count_l_orderkey");
  EXPECT_EQ(parsed.aggregates[2].kind, AggregateSpec::Kind::kSum);
  EXPECT_EQ(parsed.aggregates[2].name, "revenue");

  // And it maintains correctly end to end.
  tpch::DbgenOptions options;
  options.scale_factor = 0.002;
  tpch::Dbgen dbgen(options);
  dbgen.Populate(&catalog_);
  AggViewMaintainer agg(&catalog_, parsed.view, parsed.group_by,
                        parsed.aggregates);
  agg.InitializeView();
  tpch::RefreshStream refresh(&catalog_, &dbgen, 12);
  std::vector<Row> inserted = ApplyBaseInsert(catalog_.GetTable("lineitem"),
                                              refresh.NewLineitems(80));
  agg.OnInsert("lineitem", inserted);
  std::string diff;
  EXPECT_TRUE(agg.MatchesRecompute(1e-9, &diff)) << diff;
}

TEST_F(ParserTest, MinMaxAggregatesParse) {
  ParsedView parsed = MustParse(
      "CREATE VIEW price_range AS SELECT o_clerk, MIN(o_totalprice), "
      "MAX(o_totalprice) AS top FROM orders GROUP BY o_clerk");
  ASSERT_EQ(parsed.aggregates.size(), 2u);
  EXPECT_EQ(parsed.aggregates[0].kind, AggregateSpec::Kind::kMin);
  EXPECT_EQ(parsed.aggregates[0].name, "min_o_totalprice");
  EXPECT_EQ(parsed.aggregates[1].kind, AggregateSpec::Kind::kMax);
  EXPECT_EQ(parsed.aggregates[1].name, "top");
}

TEST_F(ParserTest, ErrorMessages) {
  EXPECT_NE(MustFail("CREATE VIEW v AS SELECT x FROM nowhere")
                .find("unknown table"),
            std::string::npos);
  EXPECT_NE(MustFail("CREATE VIEW v AS SELECT nope FROM orders")
                .find("unknown column"),
            std::string::npos);
  EXPECT_NE(MustFail("CREATE VIEW v AS SELECT o_orderkey FROM orders "
                     "JOIN lineitem ON o_orderkey = o_orderkey")
                .find("reference both join inputs"),
            std::string::npos);
  EXPECT_NE(MustFail("CREATE VIEW v AS SELECT l_orderkey FROM lineitem "
                     "JOIN lineitem ON l_orderkey = l_orderkey")
                .find("referenced twice"),
            std::string::npos);
  EXPECT_NE(MustFail("CREATE VIEW v AS SELECT COUNT(*) FROM orders")
                .find("GROUP BY"),
            std::string::npos);
  EXPECT_NE(MustFail("CREATE VIEW v AS SELECT AVG(o_totalprice) FROM orders "
                     "GROUP BY o_clerk")
                .find("SUM and COUNT"),
            std::string::npos);
  // Ambiguity: two tables could both have... every TPC-H column name is
  // prefixed, so build the case with a qualified-but-wrong table.
  EXPECT_NE(MustFail("CREATE VIEW v AS SELECT part.o_orderkey FROM orders "
                     "JOIN part ON p_partkey = o_orderkey")
                .find("unknown column"),
            std::string::npos);
  EXPECT_NE(MustFail("CREATE VIEW v AS SELECT o_orderkey FROM orders extra")
                .find("trailing"),
            std::string::npos);
  EXPECT_NE(MustFail("CREATE VIEW v AS SELECT o_orderkey FROM orders "
                     "WHERE o_totalprice > 99999999999999999999999999")
                .find("out of range"),
            std::string::npos);
}

TEST_F(ParserTest, MalformedDateLiteralFailsWithoutAborting) {
  for (const char* literal : {"1995-13-01", "soon", "1995-02-40"}) {
    const std::string sql =
        std::string("CREATE VIEW v AS SELECT o_orderkey FROM orders "
                    "WHERE o_orderdate < DATE '") +
        literal + "'";
    std::string error;
    EXPECT_FALSE(ParseCreateView(sql, catalog_, &error).has_value()) << sql;
    EXPECT_NE(error.find(literal), std::string::npos) << error;

    Database db;
    tpch::CreateSchema(db.catalog());
    EXPECT_FALSE(ExecuteCreateView(sql, &db, &error));
    EXPECT_NE(error.find(literal), std::string::npos) << error;
    EXPECT_EQ(db.GetView("v"), nullptr);
  }
}

TEST_F(ParserTest, MutatedInputNeverCrashes) {
  // Fuzz-lite: random mutations of a valid statement must either parse
  // or fail with an error — never crash or loop.
  const std::string base =
      "CREATE VIEW v AS SELECT o_orderkey, l_linenumber FROM orders "
      "LEFT OUTER JOIN lineitem ON o_orderkey = l_orderkey "
      "WHERE o_totalprice > 100 GROUP BY o_clerk";
  Rng rng(4321);
  const char alphabet[] = "abcXYZ01().,*=<>'\"| _";
  int parsed_ok = 0;
  for (int i = 0; i < 500; ++i) {
    std::string mutated = base;
    int edits = static_cast<int>(rng.Uniform(1, 6));
    for (int e = 0; e < edits; ++e) {
      size_t pos = static_cast<size_t>(
          rng.Uniform(0, static_cast<int64_t>(mutated.size()) - 1));
      switch (rng.Uniform(0, 2)) {
        case 0:
          mutated[pos] = alphabet[rng.Uniform(
              0, static_cast<int64_t>(sizeof(alphabet)) - 2)];
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.insert(pos, 1,
                         alphabet[rng.Uniform(
                             0, static_cast<int64_t>(sizeof(alphabet)) - 2)]);
          break;
      }
    }
    std::string error;
    std::optional<ParsedView> parsed =
        ParseCreateView(mutated, catalog_, &error);
    if (parsed.has_value()) {
      ++parsed_ok;
    } else {
      EXPECT_FALSE(error.empty()) << mutated;
    }
  }
  // Sanity: mutations overwhelmingly fail to parse.
  EXPECT_LT(parsed_ok, 100);
}

// Database refuses a view name in use; the SQL entry point must report
// that refusal instead of claiming the second view was created.
TEST(ExecuteCreateViewTest, NameInUseFailsAndKeepsTheFirstView) {
  Database db;
  db.catalog()->CreateTable(
      "t", Schema({ColumnDef{"a", ValueType::kInt64, false}}), {"a"});
  db.catalog()->CreateTable(
      "u", Schema({ColumnDef{"b", ValueType::kInt64, false}}), {"b"});
  db.Insert("t", {Row{Value::Int64(1)}});
  db.Insert("u", {Row{Value::Int64(1)}, Row{Value::Int64(2)}});

  std::string error;
  ASSERT_TRUE(ExecuteCreateView("CREATE VIEW v AS SELECT a FROM t", &db,
                                &error))
      << error;
  EXPECT_FALSE(ExecuteCreateView("CREATE VIEW v AS SELECT b FROM u", &db,
                                 &error));
  EXPECT_EQ(error, "view v already exists");

  ViewSnapshot snap = db.ReadView("v");
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.size(), 1);
  EXPECT_TRUE(snap.relation().schema().HasTable("t"));
  EXPECT_FALSE(snap.relation().schema().HasTable("u"));
}

}  // namespace
}  // namespace sql
}  // namespace ojv

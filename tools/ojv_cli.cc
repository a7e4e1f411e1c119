// ojv_cli — script-driven command-line front end for the library.
//
// Usage:
//   ojv_cli gen --sf=0.01 --out=DIR        generate TPC-H .tbl files
//   ojv_cli run SCRIPT [--sf=0.01]         execute a script
//
// Script statements (terminated by ';', '--' starts a comment):
//   GENERATE TPCH;                         create + populate TPC-H tables
//   LOAD TPCH FROM 'dir';                  create tables, load .tbl files
//   CREATE VIEW name AS SELECT ...;        register a maintained view
//   INSERT INTO table FROM 'file.tbl';     FK-checked insert + maintenance
//   DELETE FROM table KEYS 'file.tbl';     delete by keys + maintenance
//   EXPLAIN name;                          print the maintenance report
//   SHOW name;                             view/table row counts
//   DUMP VIEW name TO 'file';              write the view contents
//   CHECK name;                            view == recompute (exit 1 if not)
//                                          (all three read views fresh, so
//                                          they see an open transaction's
//                                          writes)
//   STATS;                                 cumulative maintenance counters
//   BEGIN; / COMMIT; / ROLLBACK;           deferred-FK transactions
//   QUERY SELECT ...;                      run a query; answered from a
//                                          matching view when possible
//
// See tools/demo.ojv for a complete example.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "baseline/recompute.h"
#include "io/csv.h"
#include "io/statement_log.h"
#include "ivm/database.h"
#include "ivm/explain.h"
#include "matching/view_matching.h"
#include "sql/parser.h"
#include "tpch/dbgen.h"
#include "tpch/tpch_schema.h"

namespace ojv {
namespace cli {
namespace {

struct Options {
  double scale_factor = 0.01;
  std::string out_dir = "tpch_data";
  std::string script;
};

// Splits a script into ';'-terminated statements, stripping '--'
// comments.
std::vector<std::string> SplitStatements(const std::string& text) {
  std::vector<std::string> statements;
  std::string current;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    size_t comment = line.find("--");
    if (comment != std::string::npos) line = line.substr(0, comment);
    for (char c : line) {
      if (c == ';') {
        // Trim whitespace.
        size_t begin = current.find_first_not_of(" \t\r\n");
        if (begin != std::string::npos) {
          size_t end = current.find_last_not_of(" \t\r\n");
          statements.push_back(current.substr(begin, end - begin + 1));
        }
        current.clear();
      } else {
        current.push_back(c);
      }
    }
    current.push_back('\n');
  }
  return statements;
}

// Case-insensitive prefix match; advances *rest past the prefix.
bool ConsumeWord(const std::string& statement, const char* word,
                 std::string* rest) {
  size_t n = std::strlen(word);
  if (statement.size() < n) return false;
  for (size_t i = 0; i < n; ++i) {
    if (std::toupper(statement[i]) != word[i]) return false;
  }
  size_t after = statement.find_first_not_of(" \t\r\n", n);
  *rest = after == std::string::npos ? "" : statement.substr(after);
  return true;
}

// Extracts a 'quoted' or bare token from the front of *text.
std::string TakeToken(std::string* text) {
  if (text->empty()) return "";
  std::string token;
  size_t end;
  if ((*text)[0] == '\'') {
    end = text->find('\'', 1);
    if (end == std::string::npos) return "";
    token = text->substr(1, end - 1);
    ++end;
  } else {
    end = text->find_first_of(" \t\r\n");
    token = text->substr(0, end);
  }
  size_t after = text->find_first_not_of(" \t\r\n", end);
  *text = after == std::string::npos ? "" : text->substr(after);
  return token;
}

class Interpreter {
 public:
  explicit Interpreter(const Options& options) : options_(options) {}

  int RunScript(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open script %s\n", path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    for (const std::string& statement : SplitStatements(buffer.str())) {
      if (!Execute(statement)) {
        std::fprintf(stderr, "error in statement: %.60s...\n  %s\n",
                     statement.c_str(), error_.c_str());
        return 1;
      }
    }
    return 0;
  }

 private:
  bool Fail(const std::string& message) {
    error_ = message;
    return false;
  }

  bool Execute(const std::string& statement) {
    std::string rest;
    if (ConsumeWord(statement, "GENERATE TPCH", &rest)) {
      tpch::CreateSchema(db_.catalog());
      tpch::DbgenOptions dbgen_options;
      dbgen_options.scale_factor = options_.scale_factor;
      tpch::Dbgen dbgen(dbgen_options);
      dbgen.Populate(db_.catalog());
      std::printf("generated TPC-H SF=%.3f (%lld lineitems)\n",
                  options_.scale_factor,
                  static_cast<long long>(
                      db_.catalog()->GetTable("lineitem")->size()));
      return true;
    }
    if (ConsumeWord(statement, "LOAD TPCH FROM", &rest)) {
      std::string dir = TakeToken(&rest);
      tpch::CreateSchema(db_.catalog());
      std::string error;
      if (!io::LoadCatalog(db_.catalog(), dir, io::TextFormat(), &error)) {
        return Fail(error);
      }
      std::printf("loaded TPC-H from %s\n", dir.c_str());
      return true;
    }
    if (ConsumeWord(statement, "CREATE VIEW", &rest)) {
      std::string error;
      if (!sql::ExecuteCreateView(statement, &db_, &error)) {
        return Fail(error);
      }
      std::string name = statement.substr(12);
      name = TakeToken(&name);
      ViewMaintainer* view = db_.GetView(name);
      if (view != nullptr) {
        std::printf("created view %s (%lld rows)\n", name.c_str(),
                    static_cast<long long>(view->view().size()));
      } else {
        AggViewMaintainer* agg = db_.GetAggregateView(name);
        std::printf("created aggregate view %s (%lld groups)\n", name.c_str(),
                    static_cast<long long>(agg->num_groups()));
      }
      return true;
    }
    if (ConsumeWord(statement, "INSERT INTO", &rest)) {
      std::string table = TakeToken(&rest);
      std::string from;
      if (!ConsumeWord(rest, "FROM", &from)) return Fail("expected FROM");
      std::string file = TakeToken(&from);
      if (!db_.catalog()->HasTable(table)) return Fail("unknown table");
      // Stage rows through a scratch table with the same schema.
      Table staging("#staging", db_.catalog()->GetTable(table)->schema(),
                    db_.catalog()->GetTable(table)->key_columns());
      std::string error;
      if (!io::LoadTable(&staging, file, io::TextFormat(), &error)) {
        return Fail(error);
      }
      Database::StatementResult result =
          db_.Insert(table, staging.Snapshot());
      std::printf("insert into %s: %lld applied, %lld rejected "
                  "(maintenance %.2f ms)\n",
                  table.c_str(), static_cast<long long>(result.rows_affected),
                  static_cast<long long>(result.rows_rejected),
                  result.maintenance_micros / 1000.0);
      return result.ok() ? true : Fail(result.error);
    }
    if (ConsumeWord(statement, "DELETE FROM", &rest)) {
      std::string table = TakeToken(&rest);
      std::string keys_clause;
      if (!ConsumeWord(rest, "KEYS", &keys_clause)) {
        return Fail("expected KEYS");
      }
      std::string file = TakeToken(&keys_clause);
      if (!db_.catalog()->HasTable(table)) return Fail("unknown table");
      const Table* base = db_.catalog()->GetTable(table);
      // A scratch table holding just the key columns.
      std::vector<ColumnDef> key_defs;
      for (int pos : base->key_positions()) {
        key_defs.push_back(base->schema().column(pos));
      }
      Table staging("#keys", Schema(key_defs), base->key_columns());
      std::string error;
      if (!io::LoadTable(&staging, file, io::TextFormat(), &error)) {
        return Fail(error);
      }
      Database::StatementResult result = db_.Delete(table, staging.Snapshot());
      std::printf("delete from %s: %lld applied (maintenance %.2f ms)\n",
                  table.c_str(), static_cast<long long>(result.rows_affected),
                  result.maintenance_micros / 1000.0);
      return result.ok() ? true : Fail(result.error);
    }
    if (ConsumeWord(statement, "EXPLAIN", &rest)) {
      std::string name = TakeToken(&rest);
      ViewMaintainer* view = db_.GetView(name);
      if (view == nullptr) return Fail("unknown view " + name);
      std::printf("%s", ExplainMaintenance(*view).c_str());
      return true;
    }
    if (ConsumeWord(statement, "SHOW", &rest)) {
      std::string name = TakeToken(&rest);
      if (ViewSnapshot view = db_.ReadView(name)) {
        std::printf("%s: %lld rows\n", name.c_str(),
                    static_cast<long long>(view.size()));
        return true;
      }
      if (ViewSnapshot agg = db_.ReadAggregateRelation(name)) {
        std::printf("%s: %lld groups\n", name.c_str(),
                    static_cast<long long>(agg.size()));
        return true;
      }
      if (db_.catalog()->HasTable(name)) {
        std::printf("%s: %lld rows\n", name.c_str(),
                    static_cast<long long>(
                        db_.catalog()->GetTable(name)->size()));
        return true;
      }
      return Fail("unknown object " + name);
    }
    if (ConsumeWord(statement, "DUMP VIEW", &rest)) {
      std::string name = TakeToken(&rest);
      std::string to_clause;
      if (!ConsumeWord(rest, "TO", &to_clause)) return Fail("expected TO");
      std::string file = TakeToken(&to_clause);
      ViewSnapshot snap = db_.ReadView(name);
      if (!snap) snap = db_.ReadAggregateRelation(name);
      if (!snap) return Fail("unknown view " + name);
      const Relation& contents = snap.relation();
      std::string error;
      if (!io::WriteRelation(contents, file, io::TextFormat(), &error)) {
        return Fail(error);
      }
      std::printf("dumped %s (%lld rows) to %s\n", name.c_str(),
                  static_cast<long long>(contents.size()), file.c_str());
      return true;
    }
    if (ConsumeWord(statement, "STATS", &rest)) {
      std::printf("%s", db_.StatsReport().c_str());
      return true;
    }
    if (ConsumeWord(statement, "BEGIN", &rest)) {
      if (!db_.BeginTransaction()) return Fail("transaction already open");
      std::printf("transaction started (FK checks deferred)\n");
      return true;
    }
    if (ConsumeWord(statement, "COMMIT", &rest)) {
      Database::StatementResult result = db_.Commit();
      if (!result.ok()) {
        std::printf("%s (rolled back)\n", result.error.c_str());
        return true;  // a failed commit is a reported outcome, not a bug
      }
      std::printf("committed\n");
      return true;
    }
    if (ConsumeWord(statement, "ROLLBACK", &rest)) {
      if (!db_.in_transaction()) return Fail("no open transaction");
      db_.Rollback();
      std::printf("rolled back\n");
      return true;
    }
    if (ConsumeWord(statement, "QUERY", &rest)) {
      // Parse the SELECT through the view parser (wrapped as a view),
      // then try to answer it from a registered view before falling
      // back to direct evaluation.
      std::string sql = "CREATE VIEW __query AS " + rest;
      std::string error;
      std::optional<sql::ParsedView> parsed =
          sql::ParseCreateView(sql, *db_.catalog(), &error);
      if (!parsed.has_value()) return Fail(error);
      if (parsed->is_aggregate) {
        return Fail("QUERY supports non-aggregate SELECTs");
      }
      std::string which;
      std::optional<Relation> answer =
          AnswerFromDatabase(parsed->view, &db_, &which);
      Relation result = answer.has_value()
                            ? std::move(*answer)
                            : RecomputeView(*db_.catalog(), parsed->view);
      std::printf("query: %lld rows (%s)\n",
                  static_cast<long long>(result.size()),
                  answer.has_value()
                      ? ("answered from view " + which).c_str()
                      : "evaluated from base tables");
      std::vector<Row> rows = result.rows();
      SortRows(&rows);
      int64_t shown = 0;
      for (const Row& row : rows) {
        if (shown++ == 10) {
          std::printf("  ... (%lld more)\n",
                      static_cast<long long>(rows.size()) - 10);
          break;
        }
        std::string line = " ";
        for (const Value& v : row) line += " " + v.ToString();
        std::printf("%s\n", line.c_str());
      }
      return true;
    }
    if (ConsumeWord(statement, "CHECK", &rest)) {
      std::string name = TakeToken(&rest);
      if (ViewSnapshot snap = db_.ReadView(name)) {
        std::string diff;
        if (!ViewMatchesRecompute(*db_.catalog(),
                                  db_.GetView(name)->view_def(),
                                  snap.relation(), &diff)) {
          return Fail("view differs from recompute: " + diff);
        }
        std::printf("check %s: ok\n", name.c_str());
        return true;
      }
      if (AggViewMaintainer* agg = db_.GetAggregateView(name)) {
        db_.ReadAggregateRelation(name);  // catches the stored groups up
        std::string diff;
        if (!agg->MatchesRecompute(1e-9, &diff)) {
          return Fail("aggregate differs from recompute: " + diff);
        }
        std::printf("check %s: ok\n", name.c_str());
        return true;
      }
      return Fail("unknown view " + name);
    }
    return Fail("unrecognized statement");
  }

  Options options_;
  Database db_;
  std::string error_;
};

int Main(int argc, char** argv) {
  Options options;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--sf=", 5) == 0) {
      options.scale_factor = std::atof(arg + 5);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      options.out_dir = arg + 6;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) {
    std::fprintf(stderr,
                 "usage: ojv_cli gen [--sf=X] [--out=DIR]\n"
                 "       ojv_cli run SCRIPT [--sf=X]\n");
    return 1;
  }
  if (positional[0] == "gen") {
    Catalog catalog;
    tpch::CreateSchema(&catalog);
    tpch::DbgenOptions dbgen_options;
    dbgen_options.scale_factor = options.scale_factor;
    tpch::Dbgen dbgen(dbgen_options);
    dbgen.Populate(&catalog);
    std::string error;
    if (!io::DumpCatalog(catalog, options.out_dir, io::TextFormat(),
                         &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("wrote TPC-H SF=%.3f to %s/\n", options.scale_factor,
                options.out_dir.c_str());
    return 0;
  }
  if (positional[0] == "run" && positional.size() >= 2) {
    Interpreter interpreter(options);
    return interpreter.RunScript(positional[1]);
  }
  std::fprintf(stderr, "unknown command '%s'\n", positional[0].c_str());
  return 1;
}

}  // namespace
}  // namespace cli
}  // namespace ojv

int main(int argc, char** argv) { return ojv::cli::Main(argc, argv); }

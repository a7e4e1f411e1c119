#include "sql/parser.h"

#include <set>

#include "common/date.h"
#include "sql/lexer.h"

namespace ojv {
namespace sql {
namespace {

// One SELECT-list item before resolution.
struct SelectItem {
  enum class Kind { kStar, kColumn, kCountStar, kCount, kSum, kMin, kMax }
      kind;
  std::string table;   // optional qualifier for kColumn/kCount/kSum
  std::string column;  // for kColumn/kCount/kSum
  std::string alias;   // AS name (aggregates)
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, const Catalog& catalog)
      : tokens_(std::move(tokens)), catalog_(catalog) {}

  std::optional<ParsedView> ParseCreateViewStatement() {
    if (!ExpectKeyword("CREATE") || !ExpectKeyword("VIEW")) return Error();
    std::string view_name;
    if (!ExpectIdentifier(&view_name)) return Error();
    if (!ExpectKeyword("AS") || !ExpectKeyword("SELECT")) return Error();

    std::vector<SelectItem> items;
    if (!ParseSelectList(&items)) return Error();

    if (!ExpectKeyword("FROM")) return Error();
    RelExprPtr tree;
    std::set<std::string> tables;
    if (!ParseJoinExpr(&tree, &tables)) return Error();

    if (AcceptKeyword("WHERE")) {
      ScalarExprPtr condition;
      if (!ParseCondition(tables, &condition)) return Error();
      tree = RelExpr::Select(tree, condition);
    }

    std::vector<ColumnRef> group_by;
    bool is_aggregate = false;
    if (AcceptKeyword("GROUP")) {
      if (!ExpectKeyword("BY")) return Error();
      is_aggregate = true;
      do {
        std::string qualifier, column;
        if (!ParseQualifiedName(&qualifier, &column)) return Error();
        ColumnRef ref;
        if (!Resolve(qualifier, column, tables, &ref)) return Error();
        group_by.push_back(ref);
      } while (AcceptSymbol(","));
    }
    if (Peek().kind != TokenKind::kEnd) {
      Fail("unexpected trailing input");
      return Error();
    }

    // Resolve the select list.
    std::vector<ColumnRef> output;
    std::vector<AggregateSpec> aggregates;
    bool any_aggregate_item = false;
    for (const SelectItem& item : items) {
      switch (item.kind) {
        case SelectItem::Kind::kStar:
          for (const std::string& t : tables) {
            const Table* table = catalog_.GetTable(t);
            for (const ColumnDef& def : table->schema().columns()) {
              output.push_back(ColumnRef{t, def.name});
            }
          }
          break;
        case SelectItem::Kind::kColumn: {
          ColumnRef ref;
          if (!Resolve(item.table, item.column, tables, &ref)) return Error();
          output.push_back(ref);
          break;
        }
        case SelectItem::Kind::kCountStar: {
          any_aggregate_item = true;
          AggregateSpec spec;
          spec.kind = AggregateSpec::Kind::kCountStar;
          spec.name = item.alias.empty() ? "count_star" : item.alias;
          aggregates.push_back(std::move(spec));
          break;
        }
        case SelectItem::Kind::kCount:
        case SelectItem::Kind::kSum:
        case SelectItem::Kind::kMin:
        case SelectItem::Kind::kMax: {
          any_aggregate_item = true;
          AggregateSpec spec;
          std::string prefix;
          switch (item.kind) {
            case SelectItem::Kind::kCount:
              spec.kind = AggregateSpec::Kind::kCount;
              prefix = "count_";
              break;
            case SelectItem::Kind::kSum:
              spec.kind = AggregateSpec::Kind::kSum;
              prefix = "sum_";
              break;
            case SelectItem::Kind::kMin:
              spec.kind = AggregateSpec::Kind::kMin;
              prefix = "min_";
              break;
            default:
              spec.kind = AggregateSpec::Kind::kMax;
              prefix = "max_";
              break;
          }
          ColumnRef ref;
          if (!Resolve(item.table, item.column, tables, &ref)) return Error();
          spec.column = ref;
          spec.name = item.alias.empty() ? prefix + ref.column : item.alias;
          aggregates.push_back(std::move(spec));
          output.push_back(ref);  // base view must expose the column
          break;
        }
      }
    }
    if (any_aggregate_item && !is_aggregate) {
      Fail("aggregates require a GROUP BY clause");
      return Error();
    }
    if (is_aggregate && !any_aggregate_item) {
      Fail("GROUP BY requires at least one aggregate in the SELECT list");
      return Error();
    }
    if (is_aggregate) {
      // The base view needs the group columns too.
      for (const ColumnRef& ref : group_by) output.push_back(ref);
    }

    // Paper §2: views output every referenced table's unique key; append
    // any the SELECT list omitted, then drop duplicates.
    for (const std::string& t : tables) {
      for (const std::string& key : catalog_.GetTable(t)->key_columns()) {
        output.push_back(ColumnRef{t, key});
      }
    }
    std::vector<ColumnRef> deduped;
    for (const ColumnRef& ref : output) {
      bool seen = false;
      for (const ColumnRef& existing : deduped) {
        if (existing == ref) {
          seen = true;
          break;
        }
      }
      if (!seen) deduped.push_back(ref);
    }

    ParsedView parsed{ViewDef(view_name, tree, std::move(deduped), catalog_),
                      is_aggregate, std::move(group_by),
                      std::move(aggregates)};
    return parsed;
  }

  const std::string& error() const { return error_; }

 private:
  std::optional<ParsedView> Error() { return std::nullopt; }

  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Next() { return tokens_[pos_++]; }

  bool Fail(const std::string& message) {
    if (error_.empty()) {
      error_ = message + " (near position " +
               std::to_string(Peek().position) + ")";
    }
    return false;
  }

  bool AcceptKeyword(const std::string& keyword) {
    if (Peek().kind == TokenKind::kKeyword && Peek().text == keyword) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ExpectKeyword(const std::string& keyword) {
    if (AcceptKeyword(keyword)) return true;
    return Fail("expected " + keyword);
  }

  bool AcceptSymbol(const std::string& symbol) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == symbol) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ExpectSymbol(const std::string& symbol) {
    if (AcceptSymbol(symbol)) return true;
    return Fail("expected '" + symbol + "'");
  }

  bool ExpectIdentifier(std::string* out) {
    if (Peek().kind == TokenKind::kIdentifier) {
      *out = Next().text;
      return true;
    }
    return Fail("expected an identifier");
  }

  // name | table.name — qualifier empty when absent.
  bool ParseQualifiedName(std::string* qualifier, std::string* column) {
    std::string first;
    if (!ExpectIdentifier(&first)) return false;
    if (AcceptSymbol(".")) {
      *qualifier = first;
      return ExpectIdentifier(column);
    }
    qualifier->clear();
    *column = first;
    return true;
  }

  bool Resolve(const std::string& qualifier, const std::string& column,
               const std::set<std::string>& tables, ColumnRef* out) {
    if (!qualifier.empty()) {
      if (tables.count(qualifier) == 0) {
        return Fail("unknown table '" + qualifier + "' in column reference");
      }
      if (catalog_.GetTable(qualifier)->schema().Find(column) < 0) {
        return Fail("unknown column '" + qualifier + "." + column + "'");
      }
      *out = ColumnRef{qualifier, column};
      return true;
    }
    const std::string* found = nullptr;
    for (const std::string& t : tables) {
      if (catalog_.GetTable(t)->schema().Find(column) >= 0) {
        if (found != nullptr) {
          return Fail("ambiguous column '" + column + "'");
        }
        found = &t;
      }
    }
    if (found == nullptr) {
      return Fail("unknown column '" + column + "'");
    }
    *out = ColumnRef{*found, column};
    return true;
  }

  bool ParseSelectList(std::vector<SelectItem>* items) {
    do {
      SelectItem item;
      if (AcceptSymbol("*")) {
        item.kind = SelectItem::Kind::kStar;
      } else if (AcceptKeyword("COUNT")) {
        if (!ExpectSymbol("(")) return false;
        if (AcceptSymbol("*")) {
          item.kind = SelectItem::Kind::kCountStar;
        } else {
          item.kind = SelectItem::Kind::kCount;
          if (!ParseQualifiedName(&item.table, &item.column)) return false;
        }
        if (!ExpectSymbol(")")) return false;
        if (AcceptKeyword("AS")) {
          if (!ExpectIdentifier(&item.alias)) return false;
        }
      } else if (AcceptKeyword("SUM")) {
        item.kind = SelectItem::Kind::kSum;
        if (!ExpectSymbol("(")) return false;
        if (!ParseQualifiedName(&item.table, &item.column)) return false;
        if (!ExpectSymbol(")")) return false;
        if (AcceptKeyword("AS")) {
          if (!ExpectIdentifier(&item.alias)) return false;
        }
      } else if (AcceptKeyword("MIN") || AcceptKeyword("MAX")) {
        // The keyword just consumed decides the kind.
        item.kind = tokens_[pos_ - 1].text == "MIN" ? SelectItem::Kind::kMin
                                                    : SelectItem::Kind::kMax;
        if (!ExpectSymbol("(")) return false;
        if (!ParseQualifiedName(&item.table, &item.column)) return false;
        if (!ExpectSymbol(")")) return false;
        if (AcceptKeyword("AS")) {
          if (!ExpectIdentifier(&item.alias)) return false;
        }
      } else if (AcceptKeyword("AVG")) {
        return Fail("AVG is not self-maintainable here; use SUM and COUNT");
      } else {
        item.kind = SelectItem::Kind::kColumn;
        if (!ParseQualifiedName(&item.table, &item.column)) return false;
      }
      items->push_back(std::move(item));
    } while (AcceptSymbol(","));
    return true;
  }

  // primary := table | '(' join_expr ')' | '(' SELECT * FROM ... ')'
  bool ParsePrimary(RelExprPtr* expr, std::set<std::string>* tables) {
    if (AcceptSymbol("(")) {
      if (AcceptKeyword("SELECT")) {
        // Derived table: SELECT * FROM <join> [WHERE cond].
        if (!ExpectSymbol("*")) {
          return Fail("derived tables support SELECT * only");
        }
        if (!ExpectKeyword("FROM")) return false;
        RelExprPtr inner;
        std::set<std::string> inner_tables;
        if (!ParseJoinExpr(&inner, &inner_tables)) return false;
        if (AcceptKeyword("WHERE")) {
          ScalarExprPtr condition;
          if (!ParseCondition(inner_tables, &condition)) return false;
          inner = RelExpr::Select(inner, condition);
        }
        if (!ExpectSymbol(")")) return false;
        *expr = inner;
        tables->insert(inner_tables.begin(), inner_tables.end());
        return true;
      }
      if (!ParseJoinExpr(expr, tables)) return false;
      return ExpectSymbol(")");
    }
    std::string name;
    if (!ExpectIdentifier(&name)) return false;
    if (!catalog_.HasTable(name)) {
      return Fail("unknown table '" + name + "'");
    }
    // One namespace per statement: a view may reference a table once.
    if (!all_tables_.insert(name).second) {
      return Fail("table '" + name + "' referenced twice (no self-joins)");
    }
    *expr = RelExpr::Scan(name);
    tables->insert(name);
    return true;
  }

  bool ParseJoinKind(JoinKind* kind, bool* found) {
    *found = true;
    if (AcceptKeyword("JOIN")) {
      *kind = JoinKind::kInner;
      return true;
    }
    if (AcceptKeyword("INNER")) {
      *kind = JoinKind::kInner;
      return ExpectKeyword("JOIN");
    }
    if (AcceptKeyword("LEFT")) {
      *kind = JoinKind::kLeftOuter;
      AcceptKeyword("OUTER");
      return ExpectKeyword("JOIN");
    }
    if (AcceptKeyword("RIGHT")) {
      *kind = JoinKind::kRightOuter;
      AcceptKeyword("OUTER");
      return ExpectKeyword("JOIN");
    }
    if (AcceptKeyword("FULL")) {
      *kind = JoinKind::kFullOuter;
      AcceptKeyword("OUTER");
      return ExpectKeyword("JOIN");
    }
    *found = false;
    return true;
  }

  bool ParseJoinExpr(RelExprPtr* expr, std::set<std::string>* tables) {
    std::set<std::string> left_tables;
    if (!ParsePrimary(expr, &left_tables)) return false;
    while (true) {
      JoinKind kind;
      bool found;
      if (!ParseJoinKind(&kind, &found)) return false;
      if (!found) break;
      RelExprPtr right;
      std::set<std::string> right_tables;
      if (!ParsePrimary(&right, &right_tables)) return false;
      if (!ExpectKeyword("ON")) return false;
      std::set<std::string> visible = left_tables;
      visible.insert(right_tables.begin(), right_tables.end());
      ScalarExprPtr condition;
      if (!ParseCondition(visible, &condition)) return false;
      // The join predicate must connect the two inputs (ViewDef would
      // abort otherwise; diagnose here instead).
      bool touches_left = false;
      bool touches_right = false;
      for (const std::string& t : condition->ReferencedTables()) {
        if (left_tables.count(t) > 0) touches_left = true;
        if (right_tables.count(t) > 0) touches_right = true;
      }
      if (!touches_left || !touches_right) {
        return Fail("join condition must reference both join inputs");
      }
      *expr = RelExpr::Join(kind, *expr, right, condition);
      left_tables = visible;
    }
    *tables = left_tables;
    return true;
  }

  // condition := comparison (AND comparison)*
  bool ParseCondition(const std::set<std::string>& visible,
                      ScalarExprPtr* out) {
    std::vector<ScalarExprPtr> conjuncts;
    do {
      ScalarExprPtr comparison;
      if (!ParseComparison(visible, &comparison)) return false;
      conjuncts.push_back(std::move(comparison));
    } while (AcceptKeyword("AND"));
    *out = MakeConjunction(std::move(conjuncts));
    return true;
  }

  bool ParseOperand(const std::set<std::string>& visible, ScalarExprPtr* out) {
    const Token& token = Peek();
    switch (token.kind) {
      case TokenKind::kNumber: {
        std::string text = Next().text;
        try {
          if (text.find('.') != std::string::npos) {
            *out = ScalarExpr::Literal(Value::Float64(std::stod(text)));
          } else {
            *out = ScalarExpr::Literal(Value::Int64(std::stoll(text)));
          }
        } catch (const std::exception&) {
          return Fail("numeric literal out of range: " + text);
        }
        return true;
      }
      case TokenKind::kString:
        *out = ScalarExpr::Literal(Value::String(Next().text));
        return true;
      case TokenKind::kKeyword:
        if (token.text == "DATE") {
          ++pos_;
          if (Peek().kind != TokenKind::kString) {
            return Fail("DATE requires a 'YYYY-MM-DD' literal");
          }
          int64_t days = 0;
          if (!TryParseDate(Peek().text, &days)) {
            return Fail("malformed DATE literal '" + Peek().text + "'");
          }
          ++pos_;
          *out = ScalarExpr::Literal(Value::Date(days));
          return true;
        }
        return Fail("unexpected keyword '" + token.text + "' in expression");
      case TokenKind::kIdentifier: {
        std::string qualifier, column;
        if (!ParseQualifiedName(&qualifier, &column)) return false;
        ColumnRef ref;
        if (!Resolve(qualifier, column, visible, &ref)) return false;
        *out = ScalarExpr::Column(ref.table, ref.column);
        return true;
      }
      default:
        return Fail("expected a column or literal");
    }
  }

  bool ParseComparison(const std::set<std::string>& visible,
                       ScalarExprPtr* out) {
    ScalarExprPtr lhs;
    if (!ParseOperand(visible, &lhs)) return false;
    if (AcceptKeyword("BETWEEN")) {
      ScalarExprPtr lo, hi;
      if (!ParseOperand(visible, &lo)) return false;
      if (!ExpectKeyword("AND")) return false;
      if (!ParseOperand(visible, &hi)) return false;
      *out = ScalarExpr::And(
          {ScalarExpr::Compare(CompareOp::kGe, lhs, std::move(lo)),
           ScalarExpr::Compare(CompareOp::kLe, lhs, std::move(hi))});
      return true;
    }
    CompareOp op;
    if (AcceptSymbol("=")) {
      op = CompareOp::kEq;
    } else if (AcceptSymbol("<>")) {
      op = CompareOp::kNe;
    } else if (AcceptSymbol("<=")) {
      op = CompareOp::kLe;
    } else if (AcceptSymbol(">=")) {
      op = CompareOp::kGe;
    } else if (AcceptSymbol("<")) {
      op = CompareOp::kLt;
    } else if (AcceptSymbol(">")) {
      op = CompareOp::kGt;
    } else {
      return Fail("expected a comparison operator");
    }
    ScalarExprPtr rhs;
    if (!ParseOperand(visible, &rhs)) return false;
    *out = ScalarExpr::Compare(op, std::move(lhs), std::move(rhs));
    return true;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  const Catalog& catalog_;
  std::set<std::string> all_tables_;  // every table scanned so far
  std::string error_;
};

}  // namespace

std::optional<ParsedView> ParseCreateView(const std::string& sql,
                                          const Catalog& catalog,
                                          std::string* error) {
  std::vector<Token> tokens;
  std::string lex_error;
  if (!Lex(sql, &tokens, &lex_error)) {
    if (error != nullptr) *error = lex_error;
    return std::nullopt;
  }
  Parser parser(std::move(tokens), catalog);
  std::optional<ParsedView> parsed = parser.ParseCreateViewStatement();
  if (!parsed.has_value() && error != nullptr) {
    *error = parser.error();
  }
  return parsed;
}

bool ExecuteCreateView(const std::string& sql, Database* db,
                       std::string* error) {
  std::optional<ParsedView> parsed =
      ParseCreateView(sql, *db->catalog(), error);
  if (!parsed.has_value()) return false;
  const std::string name = parsed->view.name();
  const bool created =
      parsed->is_aggregate
          ? db->CreateAggregateView(std::move(parsed->view),
                                    std::move(parsed->group_by),
                                    std::move(parsed->aggregates)) != nullptr
          : db->CreateMaterializedView(std::move(parsed->view)) != nullptr;
  if (!created) {
    if (error != nullptr) *error = "view " + name + " already exists";
    return false;
  }
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace sql
}  // namespace ojv

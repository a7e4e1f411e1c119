#include "io/statement_log.h"

#include <sstream>

#include "common/check.h"
#include "common/date.h"

namespace ojv {
namespace io {
namespace {

constexpr char kNullMarker[] = "\\N";

std::string RenderTyped(const Value& value, ValueType type) {
  if (value.is_null()) return kNullMarker;
  if (type == ValueType::kDate) return FormatDate(value.int64());
  if (value.is_float64()) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.17g", value.float64());
    return buf;
  }
  return value.ToString();
}

bool ParseTyped(const std::string& field, ValueType type, Value* out) {
  if (field == kNullMarker) {
    *out = Value::Null();
    return true;
  }
  try {
    switch (type) {
      case ValueType::kInt64:
        *out = Value::Int64(std::stoll(field));
        return true;
      case ValueType::kFloat64:
        *out = Value::Float64(std::stod(field));
        return true;
      case ValueType::kString:
        *out = Value::String(field);
        return true;
      case ValueType::kDate: {
        int64_t days = 0;
        if (!TryParseDate(field, &days)) break;
        *out = Value::Date(days);
        return true;
      }
    }
  } catch (const std::exception&) {
  }
  return false;
}

// Log rows use '|' separation with backslash escaping of '|', backslash
// and newline (strings may contain anything).
void WriteEscaped(std::ostream& out, const std::string& field) {
  for (char c : field) {
    switch (c) {
      case '|':
        out << "\\|";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      default:
        out << c;
    }
  }
}

bool SplitEscaped(const std::string& line, std::vector<std::string>* fields) {
  fields->clear();
  std::string current;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (c == '\\' && i + 1 < line.size()) {
      char next = line[i + 1];
      if (next == '|' || next == '\\') {
        current.push_back(next);
        ++i;
        continue;
      }
      if (next == 'n') {
        current.push_back('\n');
        ++i;
        continue;
      }
      if (next == 'N' && current.empty() &&
          (i + 2 >= line.size() || line[i + 2] == '|')) {
        current = kNullMarker;
        ++i;
        continue;
      }
    }
    if (c == '|') {
      fields->push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields->push_back(std::move(current));
  return true;
}

std::vector<ValueType> SchemaTypes(const Schema& schema) {
  std::vector<ValueType> types;
  for (int i = 0; i < schema.num_columns(); ++i) {
    types.push_back(schema.column(i).type);
  }
  return types;
}

std::vector<ValueType> KeyTypes(const Table& table) {
  std::vector<ValueType> types;
  for (int p : table.key_positions()) {
    types.push_back(table.schema().column(p).type);
  }
  return types;
}

}  // namespace

StatementLog::StatementLog(const std::string& path)
    : out_(path, std::ios::app) {}

void StatementLog::WriteRows(const std::vector<Row>& rows,
                             const std::vector<ValueType>& types) {
  for (const Row& row : rows) {
    OJV_CHECK(row.size() == types.size(), "log row arity mismatch");
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out_ << '|';
      WriteEscaped(out_, RenderTyped(row[i], types[i]));
    }
    out_ << '\n';
  }
}

void StatementLog::LogInsert(const Table& table, const std::vector<Row>& rows) {
  out_ << "#stmt INSERT " << table.name() << " " << rows.size() << "\n";
  WriteRows(rows, SchemaTypes(table.schema()));
}

void StatementLog::LogDelete(const Table& table, const std::vector<Row>& keys) {
  out_ << "#stmt DELETE " << table.name() << " " << keys.size() << "\n";
  WriteRows(keys, KeyTypes(table));
}

void StatementLog::LogUpdate(const Table& table, const std::vector<Row>& keys,
                             const std::vector<Row>& new_rows) {
  OJV_CHECK(keys.size() == new_rows.size(), "update arity mismatch");
  out_ << "#stmt UPDATE " << table.name() << " " << keys.size() << "\n";
  WriteRows(keys, KeyTypes(table));
  out_ << "#rows\n";
  WriteRows(new_rows, SchemaTypes(table.schema()));
}

bool ReplayStatementLog(const std::string& path, Database* db,
                        std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open log " + path;
    return false;
  }
  std::string line;
  int64_t line_number = 0;

  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = path + ":" + std::to_string(line_number) + ": " + message;
    }
    return false;
  };

  auto read_rows = [&](int64_t count, const std::vector<ValueType>& types,
                       std::vector<Row>* rows) {
    std::vector<std::string> fields;
    for (int64_t i = 0; i < count; ++i) {
      if (!std::getline(in, line)) return false;
      ++line_number;
      SplitEscaped(line, &fields);
      if (fields.size() != types.size()) return false;
      Row row;
      row.reserve(fields.size());
      for (size_t c = 0; c < fields.size(); ++c) {
        Value value;
        if (!ParseTyped(fields[c], types[c], &value)) return false;
        row.push_back(std::move(value));
      }
      rows->push_back(std::move(row));
    }
    return true;
  };

  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::istringstream header(line);
    std::string marker, op, table_name;
    int64_t count = 0;
    header >> marker >> op >> table_name >> count;
    if (marker != "#stmt") return fail("expected #stmt header");
    if (!db->catalog()->HasTable(table_name)) {
      return fail("unknown table " + table_name);
    }
    const Table* table = db->catalog()->GetTable(table_name);

    if (op == "INSERT") {
      std::vector<Row> rows;
      if (!read_rows(count, SchemaTypes(table->schema()), &rows)) {
        return fail("bad INSERT payload");
      }
      Database::StatementResult result = db->Insert(table_name, rows);
      if (!result.ok()) return fail(result.error);
    } else if (op == "DELETE") {
      std::vector<Row> keys;
      if (!read_rows(count, KeyTypes(*table), &keys)) {
        return fail("bad DELETE payload");
      }
      Database::StatementResult result = db->Delete(table_name, keys);
      if (!result.ok()) return fail(result.error);
    } else if (op == "UPDATE") {
      std::vector<Row> keys;
      if (!read_rows(count, KeyTypes(*table), &keys)) {
        return fail("bad UPDATE keys");
      }
      if (!std::getline(in, line) || line != "#rows") {
        return fail("expected #rows");
      }
      ++line_number;
      std::vector<Row> new_rows;
      if (!read_rows(count, SchemaTypes(table->schema()), &new_rows)) {
        return fail("bad UPDATE payload");
      }
      Database::StatementResult result =
          db->Update(table_name, keys, new_rows);
      if (!result.ok()) return fail(result.error);
    } else {
      return fail("unknown statement " + op);
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

}  // namespace io
}  // namespace ojv

#include "io/csv.h"

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/date.h"

namespace ojv {
namespace io {
namespace {

bool NeedsQuoting(const std::string& field, const TextFormat& format) {
  // Empty strings and strings spelling the NULL marker are quoted so
  // they stay distinguishable from NULL on the way back in.
  return field.empty() || field == format.null_marker ||
         field.find(format.delimiter) != std::string::npos ||
         field.find('"') != std::string::npos ||
         field.find('\n') != std::string::npos;
}

// `plain` suppresses quoting — used for the NULL marker itself, which
// must stay unquoted to read back as NULL.
void WriteField(std::ostream& out, const std::string& field,
                const TextFormat& format, bool plain = false) {
  if (plain || !NeedsQuoting(field, format)) {
    out << field;
    return;
  }
  out << '"';
  for (char c : field) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

std::string RenderValue(const Value& value, ValueType type,
                        const TextFormat& format) {
  if (value.is_null()) return format.null_marker;
  if (type == ValueType::kDate) return FormatDate(value.int64());
  if (value.is_float64()) {
    // dbgen money style when it reparses exactly; otherwise a full
    // round-trip rendering (computed prices are rarely exact cents in
    // binary floating point).
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.2f", value.float64());
    if (std::strtod(buf, nullptr) == value.float64()) return buf;
    std::snprintf(buf, sizeof(buf), "%.17g", value.float64());
    return buf;
  }
  return value.ToString();
}

// Splits one line into fields, honoring quotes; *quoted records which
// fields were quoted (a quoted empty field is an empty string, an
// unquoted one is NULL). Returns false on a malformed quoted field.
bool SplitLine(const std::string& line, const TextFormat& format,
               std::vector<std::string>* fields,
               std::vector<bool>* quoted) {
  fields->clear();
  quoted->clear();
  std::string current;
  bool in_quotes = false;
  bool was_quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"' && current.empty() && !was_quoted) {
      in_quotes = true;
      was_quoted = true;
    } else if (c == format.delimiter) {
      fields->push_back(std::move(current));
      quoted->push_back(was_quoted);
      current.clear();
      was_quoted = false;
    } else {
      current.push_back(c);
    }
  }
  if (in_quotes) return false;
  fields->push_back(std::move(current));
  quoted->push_back(was_quoted);
  if (format.trailing_delimiter && !fields->empty() &&
      fields->back().empty() && !quoted->back()) {
    fields->pop_back();  // "a|b|" splits into {a, b, ""}
    quoted->pop_back();
  }
  return true;
}

bool ParseValue(const std::string& field, bool was_quoted, ValueType type,
                const TextFormat& format, Value* out, std::string* error) {
  if (!was_quoted && (field == format.null_marker || field.empty())) {
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
    // fall through to error
  }
  if (error != nullptr) {
    *error = "cannot parse '" + field + "' as " + ValueTypeName(type);
  }
  return false;
}

}  // namespace

bool WriteTable(const Table& table, const std::string& path,
                const TextFormat& format, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  if (format.header) {
    for (int i = 0; i < table.schema().num_columns(); ++i) {
      if (i > 0) out << format.delimiter;
      WriteField(out, table.schema().column(i).name, format);
    }
    if (format.trailing_delimiter) out << format.delimiter;
    out << '\n';
  }
  bool ok = true;
  table.ForEach([&](const Row& row) {
    for (int i = 0; i < table.schema().num_columns(); ++i) {
      if (i > 0) out << format.delimiter;
      WriteField(out,
                 RenderValue(row[static_cast<size_t>(i)],
                             table.schema().column(i).type, format),
                 format, row[static_cast<size_t>(i)].is_null());
    }
    if (format.trailing_delimiter) out << format.delimiter;
    out << '\n';
  });
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to " + path + " failed";
    ok = false;
  }
  return ok;
}

bool LoadTable(Table* table, const std::string& path,
               const TextFormat& format, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string line;
  int64_t line_number = 0;
  if (format.header && std::getline(in, line)) ++line_number;
  std::vector<std::string> fields;
  std::vector<bool> quoted;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (!SplitLine(line, format, &fields, &quoted)) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_number) +
                 ": malformed quoted field";
      }
      return false;
    }
    if (static_cast<int>(fields.size()) != table->schema().num_columns()) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_number) + ": expected " +
                 std::to_string(table->schema().num_columns()) +
                 " fields, got " + std::to_string(fields.size());
      }
      return false;
    }
    Row row;
    row.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      const ColumnDef& def = table->schema().column(static_cast<int>(i));
      Value value;
      std::string parse_error;
      if (!ParseValue(fields[i], quoted[i], def.type, format, &value,
                      &parse_error)) {
        if (error != nullptr) {
          *error = path + ":" + std::to_string(line_number) + ": " +
                   parse_error;
        }
        return false;
      }
      if (value.is_null() && !def.nullable) {
        if (error != nullptr) {
          *error = path + ":" + std::to_string(line_number) +
                   ": NULL in non-nullable column " + def.name;
        }
        return false;
      }
      row.push_back(std::move(value));
    }
    if (!table->Insert(std::move(row))) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_number) +
                 ": duplicate key";
      }
      return false;
    }
  }
  if (error != nullptr) error->clear();
  return true;
}

bool WriteRelation(const Relation& relation, const std::string& path,
                   const TextFormat& format, std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  for (int i = 0; i < relation.schema().num_columns(); ++i) {
    if (i > 0) out << format.delimiter;
    WriteField(out, relation.schema().column(i).ToString(), format);
  }
  if (format.trailing_delimiter) out << format.delimiter;
  out << '\n';
  for (const Row& row : relation.rows()) {
    for (int i = 0; i < relation.schema().num_columns(); ++i) {
      if (i > 0) out << format.delimiter;
      WriteField(out,
                 RenderValue(row[static_cast<size_t>(i)],
                             relation.schema().column(i).type, format),
                 format, row[static_cast<size_t>(i)].is_null());
    }
    if (format.trailing_delimiter) out << format.delimiter;
    out << '\n';
  }
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

bool LoadRelationRows(const std::string& path, const BoundSchema& schema,
                      const TextFormat& format, std::vector<Row>* rows,
                      std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::string line;
  std::vector<std::string> fields;
  std::vector<bool> quoted;
  // Header: must name exactly the schema's tagged columns, in order.
  if (!std::getline(in, line) || !SplitLine(line, format, &fields, &quoted) ||
      static_cast<int>(fields.size()) != schema.num_columns()) {
    if (error != nullptr) *error = path + ": bad relation header";
    return false;
  }
  for (int i = 0; i < schema.num_columns(); ++i) {
    if (fields[static_cast<size_t>(i)] != schema.column(i).ToString()) {
      if (error != nullptr) {
        *error = path + ": header column " + fields[static_cast<size_t>(i)] +
                 " does not match schema column " +
                 schema.column(i).ToString();
      }
      return false;
    }
  }
  int64_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (!SplitLine(line, format, &fields, &quoted) ||
        static_cast<int>(fields.size()) != schema.num_columns()) {
      if (error != nullptr) {
        *error = path + ":" + std::to_string(line_number) + ": bad row";
      }
      return false;
    }
    Row row;
    row.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      Value value;
      std::string parse_error;
      if (!ParseValue(fields[i], quoted[i],
                      schema.column(static_cast<int>(i)).type, format, &value,
                      &parse_error)) {
        if (error != nullptr) {
          *error = path + ":" + std::to_string(line_number) + ": " +
                   parse_error;
        }
        return false;
      }
      row.push_back(std::move(value));
    }
    rows->push_back(std::move(row));
  }
  if (error != nullptr) error->clear();
  return true;
}

bool DumpCatalog(const Catalog& catalog, const std::string& dir,
                 const TextFormat& format, std::string* error) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + dir;
    return false;
  }
  for (const std::string& name : catalog.TableNames()) {
    if (!WriteTable(*catalog.GetTable(name), dir + "/" + name + ".tbl",
                    format, error)) {
      return false;
    }
  }
  return true;
}

bool LoadCatalog(Catalog* catalog, const std::string& dir,
                 const TextFormat& format, std::string* error) {
  for (const std::string& name : catalog->TableNames()) {
    std::string path = dir + "/" + name + ".tbl";
    if (!std::filesystem::exists(path)) continue;
    if (!LoadTable(catalog->GetTable(name), path, format, error)) {
      return false;
    }
  }
  return true;
}

}  // namespace io
}  // namespace ojv

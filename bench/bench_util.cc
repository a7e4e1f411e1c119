#include "bench_util.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

// Build identity for the JSON header: a Debug or sanitized binary does
// not produce numbers comparable to a plain Release build, so every
// report says which one it was.
#ifndef OJV_BUILD_TYPE
#define OJV_BUILD_TYPE "unknown"
#endif
#ifndef OJV_SANITIZE_MODE
#define OJV_SANITIZE_MODE "none"
#endif

namespace ojv {
namespace bench {

BenchOptions BenchOptions::Parse(int argc, char** argv) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--sf=", 5) == 0) {
      options.scale_factor = std::atof(arg + 5);
    } else if (std::strncmp(arg, "--seed=", 7) == 0) {
      options.seed = static_cast<uint64_t>(std::atoll(arg + 7));
    } else if (std::strncmp(arg, "--batches=", 10) == 0) {
      options.batches.clear();
      const char* p = arg + 10;
      while (*p != '\0') {
        options.batches.push_back(std::atoll(p));
        const char* comma = std::strchr(p, ',');
        if (comma == nullptr) break;
        p = comma + 1;
      }
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      options.json_path = arg + 7;
    } else if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      options.json_path = argv[++i];
    } else if (std::strncmp(arg, "--metrics-port=", 15) == 0) {
      options.metrics_port = std::atoi(arg + 15);
    }
  }
  return options;
}

TpchInstance::TpchInstance(const BenchOptions& options) {
  tpch::CreateSchema(&catalog);
  tpch::DbgenOptions dbgen_options;
  dbgen_options.scale_factor = options.scale_factor;
  dbgen_options.seed = options.seed;
  dbgen = std::make_unique<tpch::Dbgen>(dbgen_options);
  dbgen->Populate(&catalog);
  refresh = std::make_unique<tpch::RefreshStream>(&catalog, dbgen.get(),
                                                  options.seed + 1);
}

double TimeMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : (samples[mid - 1] + samples[mid]) / 2;
}

std::vector<Row> LineitemKeys(const std::vector<Row>& rows) {
  std::vector<Row> keys;
  keys.reserve(rows.size());
  for (const Row& row : rows) keys.push_back(Row{row[0], row[3]});
  return keys;
}

void PrintHeader(const std::string& title,
                 const std::vector<std::string>& columns) {
  std::printf("\n== %s ==\n", title.c_str());
  for (const std::string& c : columns) {
    std::printf("%16s", c.c_str());
  }
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) {
    std::printf("%16s", "---------------");
  }
  std::printf("\n");
}

void PrintRow(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) {
    std::printf("%16s", c.c_str());
  }
  std::printf("\n");
}

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ms", ms);
  return buf;
}

std::string FormatCount(int64_t n) { return std::to_string(n); }

JsonReport::JsonReport(std::string benchmark, const BenchOptions& options)
    : benchmark_(std::move(benchmark)), options_(options) {}

void JsonReport::BeginRow() { rows_.emplace_back(); }

void JsonReport::Num(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  std::string& row = rows_.back();
  if (!row.empty()) row += ", ";
  row += "\"" + key + "\": " + buf;
}

void JsonReport::Count(const std::string& key, int64_t value) {
  std::string& row = rows_.back();
  if (!row.empty()) row += ", ";
  row += "\"" + key + "\": " + std::to_string(value);
}

void JsonReport::Str(const std::string& key, const std::string& value) {
  std::string& row = rows_.back();
  if (!row.empty()) row += ", ";
  row += "\"" + key + "\": \"" + value + "\"";
}

void JsonReport::Obj(const std::string& key, const std::string& raw_json) {
  std::string& row = rows_.back();
  if (!row.empty()) row += ", ";
  row += "\"" + key + "\": " + raw_json;
}

bool JsonReport::Write() const {
  if (options_.json_path.empty()) return false;
  std::FILE* f = std::fopen(options_.json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", options_.json_path.c_str());
    std::abort();
  }
  std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n", benchmark_.c_str());
  std::fprintf(f, "  \"scale_factor\": %.6g,\n", options_.scale_factor);
  std::fprintf(f, "  \"seed\": %llu,\n",
               static_cast<unsigned long long>(options_.seed));
  std::fprintf(f, "  \"host_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", OJV_BUILD_TYPE);
  std::fprintf(f, "  \"sanitize\": \"%s\",\n", OJV_SANITIZE_MODE);
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows_.size(); ++i) {
    std::fprintf(f, "    {%s}%s\n", rows_[i].c_str(),
                 i + 1 < rows_.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", options_.json_path.c_str());
  return true;
}

std::string StagesJson(const MaintenanceStats& stats) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"primary_ms\": %.6g, \"apply_ms\": %.6g, "
                "\"secondary_ms\": %.6g, \"total_ms\": %.6g, "
                "\"primary_rows\": %lld, \"secondary_rows\": %lld, "
                "\"fk_fast_path\": %s}",
                stats.primary_micros / 1000.0, stats.apply_micros / 1000.0,
                stats.secondary_micros / 1000.0, stats.total_micros / 1000.0,
                static_cast<long long>(stats.primary_rows),
                static_cast<long long>(stats.secondary_rows),
                stats.fk_fast_path ? "true" : "false");
  return buf;
}

}  // namespace bench
}  // namespace ojv

// Benchmark regression gate: compares a fresh `--json` run of a fig5
// benchmark against the stage timings committed in BENCH_pipeline.json
// and fails (exit 1) when a comparable host shows a >30% regression.
//
//   bench_gate --baseline=BENCH_pipeline.json --candidate=run.json \
//              --section=fig5_insert [--threshold=0.30] [--floor-ms=0.5]
//
// Comparable means: same host core count, same build type, no
// sanitizer in either run. On a non-comparable host the gate prints why
// and exits 0 (skip) — committed numbers from another machine say
// nothing about this one. The absolute floor keeps sub-millisecond
// stages (apply on tiny batches) from tripping the ratio on timer noise.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "io/json.h"

namespace ojv {
namespace {

struct GateArgs {
  std::string baseline_path;
  std::string candidate_path;
  std::string section;
  double threshold = 0.30;
  double floor_ms = 0.5;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *out = arg + len + 1;
  return true;
}

// The stage timings gated per result row, plus the end-to-end column.
constexpr const char* kStageKeys[] = {"primary_ms", "apply_ms",
                                      "secondary_ms"};

const io::JsonValue* FindRow(const io::JsonValue& section, int64_t batch) {
  const io::JsonValue* results = section.Find("results");
  if (results == nullptr || !results->is_array()) return nullptr;
  for (const io::JsonValue& row : results->AsArray()) {
    if (row.is_object() &&
        static_cast<int64_t>(row.NumberOr("batch_rows", -1)) == batch) {
      return &row;
    }
  }
  return nullptr;
}

int Run(int argc, char** argv) {
  GateArgs args;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--baseline", &value)) {
      args.baseline_path = value;
    } else if (ParseFlag(argv[i], "--candidate", &value)) {
      args.candidate_path = value;
    } else if (ParseFlag(argv[i], "--section", &value)) {
      args.section = value;
    } else if (ParseFlag(argv[i], "--threshold", &value)) {
      args.threshold = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--floor-ms", &value)) {
      args.floor_ms = std::atof(value.c_str());
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (args.baseline_path.empty() || args.candidate_path.empty() ||
      args.section.empty()) {
    std::fprintf(stderr,
                 "usage: bench_gate --baseline=<json> --candidate=<json> "
                 "--section=<name> [--threshold=0.30] [--floor-ms=0.5]\n");
    return 2;
  }

  io::JsonValue baseline_doc;
  io::JsonValue candidate;
  std::string error;
  if (!io::ParseJsonFile(args.baseline_path, &baseline_doc, &error)) {
    std::fprintf(stderr, "bench_gate: baseline: %s\n", error.c_str());
    return 2;
  }
  if (!io::ParseJsonFile(args.candidate_path, &candidate, &error)) {
    std::fprintf(stderr, "bench_gate: candidate: %s\n", error.c_str());
    return 2;
  }
  const io::JsonValue* baseline = baseline_doc.Find(args.section);
  if (baseline == nullptr || !baseline->is_object()) {
    std::fprintf(stderr, "bench_gate: no section '%s' in %s\n",
                 args.section.c_str(), args.baseline_path.c_str());
    return 2;
  }

  // Host/build comparability: committed numbers only gate this machine
  // when it looks like the machine they were measured on.
  const int64_t base_cores =
      static_cast<int64_t>(baseline->NumberOr("host_cores", -1));
  const int64_t cand_cores =
      static_cast<int64_t>(candidate.NumberOr("host_cores", -2));
  const std::string base_build = baseline->StringOr("build_type", "");
  const std::string cand_build = candidate.StringOr("build_type", "");
  const std::string base_san = baseline->StringOr("sanitize", "");
  const std::string cand_san = candidate.StringOr("sanitize", "");
  if (base_cores != cand_cores) {
    std::printf("bench_gate: SKIP %s (host_cores %lld vs baseline %lld)\n",
                args.section.c_str(), static_cast<long long>(cand_cores),
                static_cast<long long>(base_cores));
    return 0;
  }
  if (base_build != cand_build) {
    std::printf("bench_gate: SKIP %s (build_type '%s' vs baseline '%s')\n",
                args.section.c_str(), cand_build.c_str(), base_build.c_str());
    return 0;
  }
  if (!base_san.empty() || !cand_san.empty()) {
    std::printf("bench_gate: SKIP %s (sanitized build)\n",
                args.section.c_str());
    return 0;
  }

  const io::JsonValue* cand_results = candidate.Find("results");
  if (cand_results == nullptr || !cand_results->is_array()) {
    std::fprintf(stderr, "bench_gate: candidate has no results array\n");
    return 2;
  }

  int compared = 0;
  std::vector<std::string> failures;
  for (const io::JsonValue& row : cand_results->AsArray()) {
    const int64_t batch = static_cast<int64_t>(row.NumberOr("batch_rows", -1));
    const io::JsonValue* base_row = FindRow(*baseline, batch);
    if (base_row == nullptr) continue;  // new batch size: nothing to gate
    const io::JsonValue* cand_stages = row.Find("stages");
    const io::JsonValue* base_stages = base_row->Find("stages");

    auto check = [&](const char* label, double base_ms, double cand_ms) {
      if (base_ms <= 0 || cand_ms < 0) return;
      ++compared;
      const double limit = base_ms * (1.0 + args.threshold);
      const bool regressed =
          cand_ms > limit && cand_ms - base_ms > args.floor_ms;
      std::printf("  %-14s batch=%-6lld base=%8.3fms cand=%8.3fms %s\n",
                  label, static_cast<long long>(batch), base_ms, cand_ms,
                  regressed ? "REGRESSED" : "ok");
      if (regressed) {
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s @ batch=%lld: %.3fms -> %.3fms",
                      label, static_cast<long long>(batch), base_ms, cand_ms);
        failures.push_back(buf);
      }
    };

    check("ours_ms", base_row->NumberOr("ours_ms", 0),
          row.NumberOr("ours_ms", -1));
    if (cand_stages != nullptr && base_stages != nullptr) {
      for (const char* key : kStageKeys) {
        check(key, base_stages->NumberOr(key, 0),
              cand_stages->NumberOr(key, -1));
      }
    }
  }

  if (compared == 0) {
    std::printf("bench_gate: SKIP %s (no comparable rows)\n",
                args.section.c_str());
    return 0;
  }
  if (!failures.empty()) {
    std::printf("bench_gate: FAIL %s — %zu regression(s) beyond %.0f%%:\n",
                args.section.c_str(), failures.size(), args.threshold * 100);
    for (const std::string& f : failures) {
      std::printf("  %s\n", f.c_str());
    }
    return 1;
  }
  std::printf("bench_gate: PASS %s (%d comparisons within %.0f%%)\n",
              args.section.c_str(), compared, args.threshold * 100);
  return 0;
}

}  // namespace
}  // namespace ojv

int main(int argc, char** argv) { return ojv::Run(argc, argv); }

#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Count and summed duration of one span name (optionally one view).
struct SpanTotal {
  int64_t count = 0;
  double micros = 0;
  double Mean() const { return Ratio(micros, static_cast<double>(count)); }
};

}  // namespace

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

void Samples::Add(const Op& op, double latency_ms, bool ok) {
  const int t = static_cast<int>(op.type);
  ms[t].push_back(latency_ms);
  ++kinds[t][op.kind];
  per_op_ms.push_back(latency_ms);
  busy_ms += latency_ms;
  if (!ok) ++failed;
}

void Report::Add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), std::isfinite(value) ? value : 0,
                      std::move(unit)});
}

void Report::PrintJson(bool correct, int64_t attempted, int64_t failed) const {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
}

void AddLayerMetrics(const SpanLog& log,
                     const std::vector<ojv::obs::TraceEvent>& library,
                     const Replay& replay, const Samples& facade,
                     const std::vector<Op>& ops, Report* report) {
  const std::vector<SpanLog::Span>& spans = log.spans();
  auto micros = [](const SpanLog::Span& s) {
    return static_cast<double>(s.end_ns - s.start_ns) / 1e3;
  };
  std::vector<double> child_micros(spans.size(), 0);
  for (const SpanLog::Span& s : spans) {
    if (s.parent >= 0) child_micros[static_cast<size_t>(s.parent)] += micros(s);
  }

  // Per op type: traced latency, the part its layer spans cover, and the
  // facade latency of the same ops. Root spans are in op order.
  double traced[kNumOpTypes] = {};
  double covered[kNumOpTypes] = {};
  double untraced[kNumOpTypes] = {};
  std::map<std::string, SpanTotal> totals;      // layer spans by name
  std::map<std::string, SpanTotal> maintains;   // ivm.maintain by view
  SpanTotal copying_publishes;
  size_t op_index = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanLog::Span& s = spans[i];
    if (s.parent < 0) {
      const int t = static_cast<int>(ops.at(op_index).type);
      traced[t] += micros(s);
      covered[t] += child_micros[i];
      untraced[t] += 1e3 * facade.per_op_ms.at(op_index);
      ++op_index;
      continue;
    }
    SpanTotal& total = totals[s.name];
    ++total.count;
    total.micros += micros(s);
    if (std::string_view(s.name) == "ivm.maintain") {
      ++maintains[s.view].count;
      maintains[s.view].micros += micros(s);
    }
    if (std::string_view(s.name) == "serve.publish" && s.arg >= 0) {
      ++copying_publishes.count;
      copying_publishes.micros += micros(s);
    }
  }

  // exec.* nodes are recorded after their children (post-order) and
  // nest by time; a node's self time is its duration minus that of the
  // completed nodes its interval contains that no other node claimed.
  struct Interval {
    int64_t start, end;
  };
  std::vector<Interval> unclaimed;
  std::map<std::string, double> exec_self;
  int64_t scan_rows = 0, build_rows = 0, probe_rows = 0, probe_hits = 0,
          select_rows_in = 0;
  for (const ojv::obs::TraceEvent& ev : library) {
    if (ev.name.rfind("exec.", 0) != 0) continue;
    const Interval self{ev.start_micros, ev.start_micros + ev.dur_micros};
    double children = 0;
    while (!unclaimed.empty() && unclaimed.back().start >= self.start &&
           unclaimed.back().end <= self.end) {
      children +=
          static_cast<double>(unclaimed.back().end - unclaimed.back().start);
      unclaimed.pop_back();
    }
    unclaimed.push_back(self);
    exec_self[ev.name] +=
        std::max(0.0, static_cast<double>(ev.dur_micros) - children);
    if (ev.name == "exec.scan") scan_rows += ev.ArgOr("rows_out", 0);
    if (ev.name == "exec.select") select_rows_in += ev.ArgOr("rows_in", 0);
    if (ev.name == "exec.join") {
      build_rows += ev.ArgOr("build_rows", 0);
      probe_rows += ev.ArgOr("probe_rows", 0);
      probe_hits += ev.ArgOr("probe_hits", 0);
    }
  }

  double traced_total = 0, untraced_total = 0, worst_unattributed = 0;
  for (int t = 0; t < kNumOpTypes; ++t) {
    if (traced[t] <= 0) continue;
    const double unattributed = 100.0 * (traced[t] - covered[t]) / traced[t];
    worst_unattributed = std::max(worst_unattributed, unattributed);
    traced_total += traced[t];
    untraced_total += untraced[t];
    std::printf("  %-8s traced_ms=%.3f facade_ms=%.3f "
                "replay_vs_facade=%+.1f%% layer_coverage=%.1f%%\n",
                OpTypeName(static_cast<OpType>(t)), traced[t] / 1e3,
                untraced[t] / 1e3, 100.0 * (traced[t] / untraced[t] - 1),
                100.0 - unattributed);
  }

  const Replay::Counters& c = replay.counters();
  const double calls = static_cast<double>(c.maintain_calls);
  auto mean = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.Mean();
  };
  auto view_mean = [&](const char* view) {
    auto it = maintains.find(view);
    return it == maintains.end() ? 0.0 : it->second.Mean();
  };
  auto count = [](int64_t n) { return static_cast<double>(n); };

  report->Add("catalog.fk_check_us", mean("catalog.fk_check"), "us");
  report->Add("catalog.fk_lookups", count(c.fk_lookups), "count");
  report->Add("catalog.fk_child_scan_rows", count(c.fk_child_scan_rows),
              "count");
  report->Add("catalog.fk_child_scan_us", mean("catalog.fk_child_scan"),
              "us");
  report->Add("catalog.base_apply_us", mean("catalog.base_apply"), "us");
  report->Add("deferred.stage_us", mean("deferred.stage"), "us");
  report->Add("deferred.consolidate_us", mean("deferred.consolidate"),
              "us");
  report->Add("deferred.revert_us", mean("deferred.revert"), "us");
  report->Add("deferred.replay_us", mean("deferred.replay"), "us");
  report->Add("deferred.raw_entries", count(c.raw_entries), "count");
  report->Add("deferred.consolidated_rows", count(c.consolidated_rows),
              "count");
  report->Add("deferred.cancelled_rows", count(c.cancelled_rows), "count");
  report->Add("deferred.cancel_ratio",
              Ratio(count(c.cancelled_rows), count(c.raw_entries)), "ratio");
  report->Add("ivm.maintain_us", mean("ivm.maintain"), "us");
  report->Add("ivm.maintain_us.v3", view_mean("v3"), "us");
  report->Add("ivm.maintain_us.oj_view", view_mean("oj_view"), "us");
  report->Add("ivm.maintain_us.v2", view_mean("v2"), "us");
  report->Add("ivm.primary_delta_us", Ratio(c.primary_micros, calls), "us");
  report->Add("ivm.apply_us", Ratio(c.apply_micros, calls), "us");
  report->Add("ivm.secondary_delta_us", Ratio(c.secondary_micros, calls),
              "us");
  report->Add("ivm.delta_rows", count(c.delta_rows), "count");
  report->Add("ivm.primary_rows", count(c.primary_rows), "count");
  report->Add("ivm.secondary_rows", count(c.secondary_rows), "count");
  report->Add("exec.scan_rows", count(scan_rows), "count");
  report->Add("exec.join_build_rows", count(build_rows), "count");
  report->Add("exec.join_probe_rows", count(probe_rows), "count");
  report->Add("exec.select_rows_in", count(select_rows_in), "count");
  report->Add("exec.scan_us", Ratio(exec_self["exec.scan"], calls), "us");
  report->Add("exec.join_us", Ratio(exec_self["exec.join"], calls), "us");
  report->Add("exec.select_us", Ratio(exec_self["exec.select"], calls), "us");
  report->Add("exec.base_rows_per_delta_row",
              Ratio(count(scan_rows + build_rows), count(c.delta_rows)),
              "ratio");
  report->Add("exec.probe_hit_ratio",
              Ratio(count(probe_hits), count(probe_rows)), "ratio");
  report->Add("serve.publish_us", copying_publishes.Mean(), "us");
  report->Add("serve.publish_rows_copied", count(c.publish_rows_copied),
              "count");
  report->Add("serve.copied_per_changed_row",
              Ratio(count(c.publish_rows_copied),
                    count(c.published_changed_rows)),
              "ratio");
  report->Add("serve.acquire_us", mean("serve.acquire"), "us");
  report->Add("setup.populate_s", replay.setup().populate_s, "s");
  report->Add("setup.plan_build_ms", replay.setup().plan_build_ms, "ms");
  report->Add("setup.init_view_ms", replay.setup().init_view_ms, "ms");
  report->Add("obs.trace_overhead_pct",
              100.0 * (Ratio(traced_total, untraced_total) - 1), "%");
  report->Add("trace.unattributed_pct", worst_unattributed, "%");
}

bool WriteTrace(const std::string& path, const SpanLog& log,
                const std::vector<ojv::obs::TraceEvent>& library,
                int64_t epoch_ns) {
  std::vector<ojv::obs::TraceEvent> events;
  events.reserve(log.spans().size() + library.size());
  for (const SpanLog::Span& s : log.spans()) {
    ojv::obs::TraceEvent& ev = events.emplace_back();
    ev.name = s.name;
    ev.category = ev.name.substr(0, ev.name.find('.'));
    ev.start_micros = (s.start_ns - epoch_ns) / 1000;
    ev.dur_micros = (s.end_ns - s.start_ns) / 1000;
    ev.parent = s.parent;
    if (s.arg >= 0) ev.args.emplace_back("rows", s.arg);
    if (s.view != nullptr) ev.str_args.emplace_back("view", s.view);
  }
  const int offset = static_cast<int>(log.spans().size());
  for (ojv::obs::TraceEvent ev : library) {
    if (ev.parent >= 0) ev.parent += offset;
    ev.tid = 1;  // a track of its own
    events.push_back(std::move(ev));
  }
  std::ofstream out(path);
  ojv::obs::WriteChromeTraceEvents(out, events, 0);
  return static_cast<bool>(out);
}

}  // namespace perfbench

#include "obs/trace.h"

#include <algorithm>
#include <sstream>

#include "obs/metrics.h"

namespace ojv {
namespace obs {

namespace {

/// Per-thread stack of open spans, so a span recorded anywhere knows
/// its enclosing parent without threading indices through every call.
/// Frames carry the context pointer because a thread can serve several
/// contexts over its lifetime (the shared pool does).
struct SpanFrame {
  TraceContext* ctx;
  int index;
};
thread_local std::vector<SpanFrame> t_span_stack;

int CurrentParent(const TraceContext* ctx) {
  for (auto it = t_span_stack.rbegin(); it != t_span_stack.rend(); ++it) {
    if (it->ctx == ctx) return it->index;
  }
  return -1;
}

}  // namespace

int64_t TraceEvent::ArgOr(const std::string& key, int64_t fallback) const {
  for (const auto& [k, v] : args) {
    if (k == key) return v;
  }
  return fallback;
}

const std::string* TraceEvent::StrArg(const std::string& key) const {
  for (const auto& [k, v] : str_args) {
    if (k == key) return &v;
  }
  return nullptr;
}

TraceContext::TraceContext() : epoch_(std::chrono::steady_clock::now()) {}

int64_t TraceContext::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int TraceContext::TidFor(std::thread::id id) {
  auto [it, inserted] = tids_.emplace(id, static_cast<int>(tids_.size()));
  (void)inserted;
  return it->second;
}

int TraceContext::BeginSpan(std::string name, std::string category) {
  int64_t now = NowMicros();
  int index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int>(events_.size());
    TraceEvent& ev = events_.emplace_back();
    ev.name = std::move(name);
    ev.category = std::move(category);
    ev.start_micros = now;
    ev.tid = TidFor(std::this_thread::get_id());
    ev.parent = CurrentParent(this);
  }
  t_span_stack.push_back({this, index});
  return index;
}

void TraceContext::EndSpan(
    int index, int64_t dur_micros,
    std::vector<std::pair<std::string, int64_t>> args,
    std::vector<std::pair<std::string, std::string>> str_args) {
  if (index < 0) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    TraceEvent& ev = events_[static_cast<size_t>(index)];
    ev.dur_micros = dur_micros < 0 ? 0 : dur_micros;
    ev.args = std::move(args);
    ev.str_args = std::move(str_args);
  }
  // Spans are RAII-scoped, so per thread they close LIFO; still search
  // from the top in case an inert frame was skipped.
  for (auto it = t_span_stack.rbegin(); it != t_span_stack.rend(); ++it) {
    if (it->ctx == this && it->index == index) {
      t_span_stack.erase(std::next(it).base());
      break;
    }
  }
}

void TraceContext::RecordComplete(
    std::string name, std::string category, int64_t start_micros,
    int64_t dur_micros, std::vector<std::pair<std::string, int64_t>> args,
    std::vector<std::pair<std::string, std::string>> str_args) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent& ev = events_.emplace_back();
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.start_micros = start_micros;
  ev.dur_micros = dur_micros < 0 ? 0 : dur_micros;
  ev.tid = TidFor(std::this_thread::get_id());
  ev.parent = CurrentParent(this);
  ev.args = std::move(args);
  ev.str_args = std::move(str_args);
}

size_t TraceContext::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::vector<TraceEvent> TraceContext::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

void TraceContext::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
}

double TraceContext::StageMicros(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  double total = 0;
  for (const TraceEvent& ev : events_) {
    if (ev.name == name && ev.dur_micros >= 0) {
      total += static_cast<double>(ev.dur_micros);
    }
  }
  return total;
}

int64_t TraceContext::SpanCount(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t n = 0;
  for (const TraceEvent& ev : events_) {
    if (ev.name == name) ++n;
  }
  return n;
}

bool TraceContext::HasSpan(const std::string& name) const {
  return SpanCount(name) > 0;
}

int64_t TraceContext::ArgSum(const std::string& name,
                             const std::string& arg) const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const TraceEvent& ev : events_) {
    if (ev.name == name) total += ev.ArgOr(arg, 0);
  }
  return total;
}

namespace {

void WriteArgsJson(std::ostream& out, const TraceEvent& ev) {
  out << "{";
  bool first = true;
  for (const auto& [k, v] : ev.args) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(k) << "\": " << v;
  }
  for (const auto& [k, v] : ev.str_args) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(k) << "\": \"" << JsonEscape(v) << "\"";
  }
  out << "}";
}

}  // namespace

void WriteChromeTraceEvents(std::ostream& out,
                            const std::vector<TraceEvent>& events,
                            int64_t now_micros) {
  out << "{\"traceEvents\": [\n";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out << ",\n";
    first = false;
    int64_t dur =
        ev.dur_micros >= 0 ? ev.dur_micros : now_micros - ev.start_micros;
    out << "  {\"name\": \"" << JsonEscape(ev.name) << "\", \"cat\": \""
        << JsonEscape(ev.category) << "\", \"ph\": \"X\", \"ts\": "
        << ev.start_micros << ", \"dur\": " << dur
        << ", \"pid\": 1, \"tid\": " << ev.tid << ", \"args\": ";
    WriteArgsJson(out, ev);
    out << "}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

void TraceContext::WriteChromeTrace(std::ostream& out) const {
  WriteChromeTraceEvents(out, Snapshot(), NowMicros());
}

void TraceContext::WriteStatsJson(std::ostream& out) const {
  std::vector<TraceEvent> events = Snapshot();
  // Aggregate by span name, preserving first-seen order for stable and
  // roughly pipeline-ordered output.
  struct Agg {
    int64_t count = 0;
    int64_t total_micros = 0;
    std::vector<std::pair<std::string, int64_t>> args;  // summed
  };
  std::vector<std::pair<std::string, Agg>> aggs;
  auto find = [&aggs](const std::string& name) -> Agg& {
    for (auto& [n, a] : aggs) {
      if (n == name) return a;
    }
    return aggs.emplace_back(name, Agg{}).second;
  };
  for (const TraceEvent& ev : events) {
    Agg& agg = find(ev.name);
    agg.count += 1;
    if (ev.dur_micros >= 0) agg.total_micros += ev.dur_micros;
    for (const auto& [k, v] : ev.args) {
      bool found = false;
      for (auto& [ak, av] : agg.args) {
        if (ak == k) {
          av += v;
          found = true;
          break;
        }
      }
      if (!found) agg.args.emplace_back(k, v);
    }
  }
  out << "{\"spans\": {";
  bool first = true;
  for (const auto& [name, agg] : aggs) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << JsonEscape(name) << "\": {\"count\": " << agg.count
        << ", \"total_micros\": " << agg.total_micros << ", \"args\": {";
    bool afirst = true;
    for (const auto& [k, v] : agg.args) {
      if (!afirst) out << ", ";
      afirst = false;
      out << "\"" << JsonEscape(k) << "\": " << v;
    }
    out << "}}";
  }
  out << "}, \"metrics\": ";
  Registry::Global().WriteJson(out);
  out << "}\n";
}

std::string TraceContext::RenderTree() const {
  std::vector<TraceEvent> events = Snapshot();
  // Children of each event, in record order. Record order is not start
  // order (the evaluator records post-order), so sort siblings by start
  // time for a readable timeline.
  std::vector<std::vector<int>> children(events.size());
  std::vector<int> roots;
  for (size_t i = 0; i < events.size(); ++i) {
    int parent = events[i].parent;
    if (parent >= 0 && static_cast<size_t>(parent) < events.size()) {
      children[static_cast<size_t>(parent)].push_back(static_cast<int>(i));
    } else {
      roots.push_back(static_cast<int>(i));
    }
  }
  auto by_start = [&events](int a, int b) {
    return events[static_cast<size_t>(a)].start_micros <
           events[static_cast<size_t>(b)].start_micros;
  };
  for (auto& c : children) std::stable_sort(c.begin(), c.end(), by_start);
  std::stable_sort(roots.begin(), roots.end(), by_start);

  std::ostringstream out;
  auto render = [&](auto&& self, int index, int depth) -> void {
    const TraceEvent& ev = events[static_cast<size_t>(index)];
    out << std::string(static_cast<size_t>(depth) * 2, ' ') << ev.name;
    if (ev.dur_micros >= 0) {
      out << "  " << ev.dur_micros << "us";
    } else {
      out << "  (open)";
    }
    for (const auto& [k, v] : ev.args) out << "  " << k << "=" << v;
    for (const auto& [k, v] : ev.str_args) out << "  " << k << "=" << v;
    out << "\n";
    for (int child : children[static_cast<size_t>(index)]) {
      self(self, child, depth + 1);
    }
  };
  for (int root : roots) render(render, root, 0);
  return out.str();
}

}  // namespace obs
}  // namespace ojv

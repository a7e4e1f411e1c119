#ifndef OJV_OBS_TRACE_H_
#define OJV_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ojv {
namespace obs {

/// One recorded span. Events are appended in completion order: a span
/// opened after its children finished (the evaluator does this so the
/// event order is a post-order walk of the plan tree) still nests
/// correctly in Chrome tracing because "X" events nest by time, and
/// `parent` records the lexically enclosing open span at record time.
struct TraceEvent {
  std::string name;        // e.g. "exec.join", "ivm.primary_delta"
  std::string category;    // subsystem: "exec", "ivm", "deferred", ...
  int64_t start_micros = 0;  // relative to the context's epoch
  int64_t dur_micros = -1;   // -1 while the span is still open
  int tid = 0;               // dense per-context thread number
  int parent = -1;           // event index of enclosing span, -1 = root
  std::vector<std::pair<std::string, int64_t>> args;
  std::vector<std::pair<std::string, std::string>> str_args;

  int64_t ArgOr(const std::string& key, int64_t fallback) const;
  const std::string* StrArg(const std::string& key) const;
};

/// Writes a flat event list as Chrome trace_event JSON
/// ({"traceEvents": [...]}) — load it in chrome://tracing or
/// https://ui.perfetto.dev. Shared by TraceContext::WriteChromeTrace
/// and the flight recorder, so both dumps open in the same viewer.
/// Still-open spans (dur < 0) are stamped with `now_micros` elapsed
/// time so a crash dump stays loadable.
void WriteChromeTraceEvents(std::ostream& out,
                            const std::vector<TraceEvent>& events,
                            int64_t now_micros);

/// Hooks from Span into the process-wide flight recorder, implemented
/// in flight_recorder.cc (declared here so trace.h need not include
/// flight_recorder.h, which includes this header for TraceEvent).
namespace flight_hook {
bool Sample();
int64_t NowMicros();
void Record(const char* name, const char* category, int64_t start_micros,
            int64_t dur_micros);
}  // namespace flight_hook

/// Per-maintenance trace buffer. Thread it through MaintenanceOptions
/// (`options.trace = &ctx`) and every stage of the pipeline — plan
/// build, primary/secondary delta, exec operators, deferred refresh —
/// records spans into it. Null context (the default) means tracing off.
///
/// Thread-safety: all mutation goes through one mutex; spans are cheap
/// (operators record one event per *node*, not per row), so the lock is
/// not on any hot path.
class TraceContext {
 public:
  TraceContext();

  /// Micros since this context was created (monotonic clock).
  int64_t NowMicros() const;

  /// Opens a span: appends an open event (dur -1) and pushes it on the
  /// calling thread's span stack, so spans recorded underneath know
  /// their parent. Returns the event index. Prefer the Span RAII guard.
  int BeginSpan(std::string name, std::string category);

  /// Closes the span opened by BeginSpan and pops the thread's stack.
  void EndSpan(int index, int64_t dur_micros,
               std::vector<std::pair<std::string, int64_t>> args,
               std::vector<std::pair<std::string, std::string>> str_args);

  /// Appends an already-finished span without touching the span stack
  /// (its parent is the thread's current open span). The evaluator uses
  /// this after a node's own work completes, which makes event order a
  /// post-order walk of the plan tree — what ExplainMaintenance zips
  /// against.
  void RecordComplete(
      std::string name, std::string category, int64_t start_micros,
      int64_t dur_micros,
      std::vector<std::pair<std::string, int64_t>> args = {},
      std::vector<std::pair<std::string, std::string>> str_args = {});

  size_t event_count() const;
  std::vector<TraceEvent> Snapshot() const;
  void Clear();

  // --- queries (tests, explain, bench) ---

  /// Summed duration of all finished spans with this name.
  double StageMicros(const std::string& name) const;
  int64_t SpanCount(const std::string& name) const;
  bool HasSpan(const std::string& name) const;
  /// Sum of integer arg `arg` over all spans named `name`.
  int64_t ArgSum(const std::string& name, const std::string& arg) const;

  // --- exports ---

  /// Chrome trace_event JSON ({"traceEvents": [...]}) — load it in
  /// chrome://tracing or https://ui.perfetto.dev. Still-open spans are
  /// emitted with their elapsed time so a crash dump stays loadable.
  void WriteChromeTrace(std::ostream& out) const;

  /// Flat per-stage aggregates plus the global metric registry:
  /// {"spans": {name: {count, total_micros, args: {...}}},
  ///  "metrics": {"counters": ..., "histograms": ...}}.
  void WriteStatsJson(std::ostream& out) const;

  /// Human-readable indented span tree with durations and args.
  std::string RenderTree() const;

 private:
  int TidFor(std::thread::id id);  // requires mu_ held

  mutable std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::map<std::thread::id, int> tids_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII span guard. Inert when constructed with a null context (or with
/// the default constructor), so call sites write
///
///   obs::Span span(options.trace, "ivm.maintain", "ivm");
///   ...
///   span.AddArg("rows", n);
///
/// unconditionally. Args accumulate locally and are attached when the
/// span finishes — no lock is taken between Begin and Finish. The
/// destructor finishes an open span with wall time; call
/// FinishWithDuration to stamp an externally measured duration instead
/// (the maintainer feeds its MaintenanceStats micros in, so the legacy
/// numbers and the trace are one measurement, not two).
///
/// Every Span — traced or not — also feeds the process-wide flight
/// recorder (see obs/flight_recorder.h) when its sampling gate says
/// yes, so the last few thousand spans are always reconstructible even
/// with no TraceContext attached. `name` and `category` must be string
/// literals (or otherwise process-lifetime): the recorder stores the
/// pointers, not copies.
class Span {
 public:
  Span() = default;
  Span(TraceContext* ctx, const char* name, const char* category) {
    if (ctx != nullptr) {
      ctx_ = ctx;
      index_ = ctx->BeginSpan(name, category);
      start_ = ctx->NowMicros();
    }
    if (flight_hook::Sample()) {
      flight_name_ = name;
      flight_cat_ = category;
      flight_start_ = flight_hook::NowMicros();
    }
  }
  ~Span() { Finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      Finish();
      ctx_ = other.ctx_;
      index_ = other.index_;
      start_ = other.start_;
      args_ = std::move(other.args_);
      str_args_ = std::move(other.str_args_);
      flight_name_ = other.flight_name_;
      flight_cat_ = other.flight_cat_;
      flight_start_ = other.flight_start_;
      other.ctx_ = nullptr;
      other.flight_name_ = nullptr;
    }
    return *this;
  }

  bool active() const { return ctx_ != nullptr; }

  void AddArg(const char* key, int64_t value) {
    if (ctx_ != nullptr) args_.emplace_back(key, value);
  }
  void AddArg(const char* key, std::string value) {
    if (ctx_ != nullptr) str_args_.emplace_back(key, std::move(value));
  }

  /// Closes with measured wall time. Idempotent.
  void Finish() {
    if (ctx_ != nullptr) {
      FinishWithDuration(static_cast<double>(ctx_->NowMicros() - start_));
      return;
    }
    if (flight_name_ != nullptr) {
      flight_hook::Record(flight_name_, flight_cat_, flight_start_,
                          flight_hook::NowMicros() - flight_start_);
      flight_name_ = nullptr;
    }
  }

  /// Closes with the caller's duration (micros) — use when the stage
  /// already times itself and the trace must agree exactly.
  void FinishWithDuration(double micros) {
    if (ctx_ != nullptr) {
      ctx_->EndSpan(index_, static_cast<int64_t>(micros), std::move(args_),
                    std::move(str_args_));
      ctx_ = nullptr;
    }
    if (flight_name_ != nullptr) {
      flight_hook::Record(flight_name_, flight_cat_, flight_start_,
                          static_cast<int64_t>(micros));
      flight_name_ = nullptr;
    }
  }

 private:
  TraceContext* ctx_ = nullptr;
  int index_ = -1;
  int64_t start_ = 0;
  const char* flight_name_ = nullptr;
  const char* flight_cat_ = nullptr;
  int64_t flight_start_ = 0;
  std::vector<std::pair<std::string, int64_t>> args_;
  std::vector<std::pair<std::string, std::string>> str_args_;
};

}  // namespace obs
}  // namespace ojv

#endif  // OJV_OBS_TRACE_H_

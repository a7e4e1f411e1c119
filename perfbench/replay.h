#ifndef OJV_PERFBENCH_REPLAY_H_
#define OJV_PERFBENCH_REPLAY_H_

#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "deferred/delta_log.h"
#include "ivm/maintainer.h"
#include "ivm/view_snapshot.h"
#include "obs/trace.h"
#include "tpch/dbgen.h"
#include "workload.h"

namespace perfbench {

/// steady_clock now, in nanoseconds since its epoch.
inline int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans the benchmark records around each layer call, kept in memory
/// (they are cheap enough that tiny statements stay covered: two clock
/// reads and one vector append each).
class SpanLog {
 public:
  struct Span {
    const char* name;
    int parent;  // enclosing span, -1 for an op's root span
    int64_t start_ns;
    int64_t end_ns;
    int64_t arg;  // rows, lookups or rows copied; -1 when none
    const char* view;
  };

  /// Opens a span for its lifetime; inert when `log` is null.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, const char* view = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_arg(int64_t value) {
      if (log_ != nullptr) log_->spans_[static_cast<size_t>(index_)].arg = value;
    }

   private:
    SpanLog* log_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Replays a workload's ops through each layer's public functions, in
/// the order ojv::Database calls them, with one SpanLog span around
/// every call ("<layer>.<call>", under one "op.<type>" root per op). The
/// library's own ivm.* and exec.* spans go to a TraceContext attached
/// through MaintenanceOptions::trace. Nothing here changes what the
/// layers do: the final views must equal the facade run's.
class Replay {
 public:
  struct SetupTimes {
    double populate_s = 0;
    double plan_build_ms = 0;
    double init_view_ms = 0;
  };

  /// Exact work counters, summed over the ops applied while tracing.
  struct Counters {
    int64_t fk_lookups = 0;
    int64_t fk_child_scan_rows = 0;
    int64_t raw_entries = 0;
    int64_t consolidated_rows = 0;
    int64_t cancelled_rows = 0;
    int64_t maintain_calls = 0;
    int64_t delta_rows = 0;
    int64_t primary_rows = 0;
    int64_t secondary_rows = 0;
    double primary_micros = 0;
    double apply_micros = 0;
    double secondary_micros = 0;
    int64_t publish_rows_copied = 0;
    /// View rows inserted or deleted by maintenance since each publish,
    /// summed at the publishes that copied them.
    int64_t published_changed_rows = 0;
  };

  /// Populates the TPC-H database and builds the workload's views and
  /// snapshot stores, timing each step. Once set_tracing(true) is
  /// called, `spans` receives the benchmark's spans and `trace` the
  /// library's.
  Replay(Workload workload, ojv::tpch::Dbgen* dbgen, SpanLog* spans,
         ojv::obs::TraceContext* trace);

  /// Records spans and counts work, or neither.
  void set_tracing(bool on);

  /// Applies one op; false when it failed as the facade would report.
  bool Apply(const Op& op);

  /// Refreshes every deferred view (untraced end-of-run catch-up).
  void CatchUp();

  const ojv::ViewMaintainer& view(const std::string& name) const {
    return *views_.at(name).maintainer;
  }
  const SetupTimes& setup() const { return setup_; }
  const Counters& counters() const { return counters_; }

 private:
  struct View {
    std::unique_ptr<ojv::ViewMaintainer> maintainer;
    std::shared_ptr<ojv::GenerationStore> store;
    int64_t changed_since_publish = 0;
  };

  bool Insert(const Op& op);
  bool Delete(const Op& op);
  bool Update(const Op& op);
  void Refresh(const std::string& view_name);
  bool Read(const Op& op);

  /// Database::RowSatisfiesForeignKeys over every row.
  bool CheckForeignKeys(const std::string& table, const std::vector<Row>& rows);
  /// One maintenance call on one view, wrapped in ivm.maintain.
  void Maintain(const std::string& name, View* view,
                const std::function<ojv::MaintenanceStats()>& call);
  /// DeltaLog::Append for the statement when a deferred view reads
  /// `table` (Database::StageDeferred).
  void Stage(const std::string& table, ojv::deferred::DeltaOp op,
             const std::vector<Row>& rows, bool update_pair);
  /// AsRelation + GenerationStore::Publish when the published
  /// generation is out of date (Database::PublishSnapshotLocked).
  void Publish(const std::string& name, View* view);
  bool Reads(const View& view, const std::string& table) const {
    return view.maintainer->view_def().tables().count(table) > 0;
  }

  SpanLog* spans_;
  ojv::obs::TraceContext* trace_;
  SpanLog* active_ = nullptr;  // spans_ while tracing
  ojv::Catalog catalog_;
  std::map<std::string, View> views_;
  ojv::deferred::DeltaLog log_;
  SetupTimes setup_;
  Counters counters_;
};

}  // namespace perfbench

#endif  // OJV_PERFBENCH_REPLAY_H_

#ifndef OJV_OBS_FLIGHT_RECORDER_H_
#define OJV_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace ojv {
namespace obs {

/// Always-on flight recorder: fixed-capacity per-thread ring buffers of
/// the most recent finished spans, recorded from every obs::Span (and
/// the evaluator's per-node events) whether or not a TraceContext is
/// attached. When a latency spike happens, the last ~kRingCapacity
/// spans per thread are still in memory and can be dumped — via API or
/// SIGUSR2 — into the same Chrome trace_event JSON that
/// TraceContext::WriteChromeTrace produces.
///
/// Cost model: one relaxed-atomic sampling check per span construction
/// plus four relaxed stores per finished span. Memory is bounded at
/// kRingCapacity slots per thread that ever records; rings are leaked
/// like the metric Registry so dumps work during shutdown. Slots are
/// individually-atomic fields with no cross-field ordering: a snapshot
/// racing a wrapping writer can observe a torn event (name from one
/// span, duration from another). That is the accepted price for a
/// zero-lock hot path — the dump is a diagnostic, not a ledger.
///
/// Span names/categories are stored as `const char*` and must be
/// string literals (every Span call site passes literals; the evaluator
/// uses ExecSpanNameFor's literal table).
class FlightRecorder {
 public:
  static constexpr size_t kRingCapacity = 4096;  // spans per thread

  static FlightRecorder& Global();

  /// Master switch (default on — it is a *flight* recorder). Turning it
  /// off stops new records; existing ring contents stay dumpable.
  void SetEnabled(bool enabled);
  bool enabled() const;

  /// Recording gate for Span: true when the recorder is on.
  bool Sample();

  /// Micros since the recorder's epoch (steady clock, process-wide —
  /// unlike TraceContext::NowMicros which is per-context).
  int64_t NowMicros() const;

  /// Appends one finished span to the calling thread's ring,
  /// overwriting the oldest entry once full.
  void Record(const char* name, const char* category, int64_t start_micros,
              int64_t dur_micros);

  /// All live ring contents as TraceEvents (tid = ring registration
  /// order, parent = -1), sorted by start time.
  std::vector<TraceEvent> Snapshot() const;

  /// Chrome trace_event JSON of Snapshot() (see WriteChromeTraceEvents).
  void WriteChromeTrace(std::ostream& out) const;

  /// Atomic (tmp + rename) Chrome-trace dump. The on-demand API path.
  bool DumpToFile(const std::string& path, std::string* error = nullptr) const;

  // --- SIGUSR2 dump path ---
  //
  // The signal handler only sets an atomic flag (async-signal-safe); a
  // background poller thread notices and performs the dump with regular
  // file I/O. Dumps land in `dir` as flight-<n>.json, n increasing.

  /// Installs the SIGUSR2 handler and starts the poller. Idempotent; a
  /// second call just updates the directory.
  void StartSignalDumps(const std::string& dir);
  void StopSignalDumps();

  /// Requests a dump exactly as SIGUSR2 would (shared flag).
  void RequestDump();

  /// Performs the pending dump now, if one was requested; returns the
  /// written path or "". Called by the poller; tests call it directly
  /// after raise(SIGUSR2) for a deterministic dump point.
  std::string DrainPendingDump();

  /// Zeroes every ring (entries, not registrations) and the dump
  /// sequence number. Tests only.
  void ClearForTest();

 private:
  struct Slot {
    std::atomic<const char*> name{nullptr};  // nullptr = never written
    std::atomic<const char*> category{nullptr};
    std::atomic<int64_t> start_micros{0};
    std::atomic<int64_t> dur_micros{0};
  };
  struct Ring {
    std::array<Slot, kRingCapacity> slots;
    std::atomic<uint64_t> next{0};  // monotone; slot = next % capacity
    int tid = 0;
  };

  FlightRecorder();
  Ring* RingForThisThread();

  std::atomic<bool> enabled_{true};
  std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex rings_mu_;
  std::vector<Ring*> rings_;  // leaked: threads may outlive any joiner

  std::mutex dump_mu_;  // guards dump_dir_, poller_, dump_seq_
  std::string dump_dir_;
  std::thread poller_;
  std::atomic<bool> poller_stop_{false};
  int dump_seq_ = 0;
};

}  // namespace obs
}  // namespace ojv

#endif  // OJV_OBS_FLIGHT_RECORDER_H_

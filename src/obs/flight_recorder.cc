#include "obs/flight_recorder.h"

#include <sys/stat.h>

#include <algorithm>
#include <csignal>
#include <sstream>

#include "obs/export.h"

namespace ojv {
namespace obs {

namespace {

// Set by the SIGUSR2 handler — the only thing a signal handler may
// safely do. File-scope (not a member) so the handler needs no capture.
std::atomic<bool> g_dump_pending{false};

void HandleSigusr2(int) { g_dump_pending.store(true, std::memory_order_relaxed); }

}  // namespace

FlightRecorder::FlightRecorder() : epoch_(std::chrono::steady_clock::now()) {}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* instance = new FlightRecorder();  // never destroyed
  return *instance;
}

void FlightRecorder::SetEnabled(bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

bool FlightRecorder::enabled() const {
  return enabled_.load(std::memory_order_relaxed);
}

bool FlightRecorder::Sample() { return enabled(); }

int64_t FlightRecorder::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

FlightRecorder::Ring* FlightRecorder::RingForThisThread() {
  // One ring per (thread, process): the recorder is a singleton, so a
  // plain thread_local cache is enough. Rings are registered once and
  // never freed — a dump must be able to show spans from dead threads.
  thread_local Ring* t_ring = nullptr;
  if (t_ring == nullptr) {
    t_ring = new Ring();
    std::lock_guard<std::mutex> lock(rings_mu_);
    t_ring->tid = static_cast<int>(rings_.size());
    rings_.push_back(t_ring);
  }
  return t_ring;
}

void FlightRecorder::Record(const char* name, const char* category,
                            int64_t start_micros, int64_t dur_micros) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* ring = RingForThisThread();
  uint64_t i = ring->next.fetch_add(1, std::memory_order_relaxed) %
               kRingCapacity;
  Slot& slot = ring->slots[static_cast<size_t>(i)];
  slot.category.store(category, std::memory_order_relaxed);
  slot.start_micros.store(start_micros, std::memory_order_relaxed);
  slot.dur_micros.store(dur_micros < 0 ? 0 : dur_micros,
                        std::memory_order_relaxed);
  // Name last: it doubles as the slot's "written" marker, so a reader
  // usually sees a complete event (no ordering guarantee — see class
  // comment on torn reads).
  slot.name.store(name, std::memory_order_relaxed);
}

std::vector<TraceEvent> FlightRecorder::Snapshot() const {
  std::vector<TraceEvent> out;
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (const Ring* ring : rings_) {
    for (const Slot& slot : ring->slots) {
      const char* name = slot.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      TraceEvent& ev = out.emplace_back();
      ev.name = name;
      const char* cat = slot.category.load(std::memory_order_relaxed);
      ev.category = cat != nullptr ? cat : "";
      ev.start_micros = slot.start_micros.load(std::memory_order_relaxed);
      ev.dur_micros = slot.dur_micros.load(std::memory_order_relaxed);
      ev.tid = ring->tid;
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start_micros < b.start_micros;
            });
  return out;
}

void FlightRecorder::WriteChromeTrace(std::ostream& out) const {
  WriteChromeTraceEvents(out, Snapshot(), NowMicros());
}

bool FlightRecorder::DumpToFile(const std::string& path,
                                std::string* error) const {
  std::ostringstream body;
  WriteChromeTrace(body);
  return WriteFileAtomic(path, body.str(), error);
}

void FlightRecorder::StartSignalDumps(const std::string& dir) {
  std::lock_guard<std::mutex> lock(dump_mu_);
  dump_dir_ = dir;
  // Best effort: dumps into a directory nobody created would silently
  // fail at the worst possible moment (post-mortem).
  ::mkdir(dir.c_str(), 0755);
  struct sigaction sa = {};
  sa.sa_handler = HandleSigusr2;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGUSR2, &sa, nullptr);
  if (!poller_.joinable()) {
    poller_stop_.store(false, std::memory_order_relaxed);
    poller_ = std::thread([this] {
      while (!poller_stop_.load(std::memory_order_relaxed)) {
        DrainPendingDump();
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    });
  }
}

void FlightRecorder::StopSignalDumps() {
  std::thread poller;
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    if (!poller_.joinable()) return;
    poller_stop_.store(true, std::memory_order_relaxed);
    poller = std::move(poller_);
  }
  poller.join();
  // The SIGUSR2 handler stays installed: with the poller gone a stray
  // signal just sets the flag instead of killing the process.
}

void FlightRecorder::RequestDump() {
  g_dump_pending.store(true, std::memory_order_relaxed);
}

std::string FlightRecorder::DrainPendingDump() {
  if (!g_dump_pending.exchange(false, std::memory_order_relaxed)) return "";
  std::string path;
  {
    std::lock_guard<std::mutex> lock(dump_mu_);
    std::string dir = dump_dir_.empty() ? "." : dump_dir_;
    path = dir + "/flight-" + std::to_string(++dump_seq_) + ".json";
  }
  if (!DumpToFile(path)) return "";
  return path;
}

void FlightRecorder::ClearForTest() {
  std::lock_guard<std::mutex> lock(rings_mu_);
  for (Ring* ring : rings_) {
    for (Slot& slot : ring->slots) {
      slot.name.store(nullptr, std::memory_order_relaxed);
      slot.category.store(nullptr, std::memory_order_relaxed);
      slot.start_micros.store(0, std::memory_order_relaxed);
      slot.dur_micros.store(0, std::memory_order_relaxed);
    }
    ring->next.store(0, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> dump_lock(dump_mu_);
  dump_seq_ = 0;
  g_dump_pending.store(false, std::memory_order_relaxed);
}

namespace flight_hook {

bool Sample() { return FlightRecorder::Global().Sample(); }

int64_t NowMicros() { return FlightRecorder::Global().NowMicros(); }

void Record(const char* name, const char* category, int64_t start_micros,
            int64_t dur_micros) {
  FlightRecorder::Global().Record(name, category, start_micros, dur_micros);
}

}  // namespace flight_hook

}  // namespace obs
}  // namespace ojv

// Tests for the always-on flight recorder: ring wraparound, the
// Span/evaluator hook path, SIGUSR2-triggered dumps (made
// deterministic by draining the flag directly instead of racing the
// poller). The record-vs-snapshot hammer runs in tools/check.sh's tsan
// stage — that is what certifies the all-atomic slot design.
//
// The recorder is a process-wide singleton, so every test starts with
// ClearForTest() and restores enabled on the way out.

#include "obs/flight_recorder.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "io/json.h"
#include "obs/trace.h"

namespace ojv {
namespace obs {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::Global().SetEnabled(true);
    FlightRecorder::Global().ClearForTest();
  }
  void TearDown() override {
    FlightRecorder::Global().SetEnabled(true);
    FlightRecorder::Global().ClearForTest();
  }
};

TEST_F(FlightRecorderTest, RecordsAndSnapshotsSortedByStart) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Record("later", "test", 100, 5);
  recorder.Record("earlier", "test", 10, 3);
  std::vector<TraceEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "earlier");
  EXPECT_EQ(events[0].start_micros, 10);
  EXPECT_EQ(events[0].dur_micros, 3);
  EXPECT_EQ(events[1].name, "later");
}

TEST_F(FlightRecorderTest, SpanFeedsRecorderWithoutTraceContext) {
  // The tentpole property: spans are recorded even with no TraceContext
  // attached anywhere.
  { Span span(nullptr, "flight.test.span", "test"); }
  std::vector<TraceEvent> events = FlightRecorder::Global().Snapshot();
  bool found = false;
  for (const TraceEvent& ev : events) {
    if (ev.name == "flight.test.span") {
      found = true;
      EXPECT_EQ(ev.category, "test");
      EXPECT_GE(ev.dur_micros, 0);
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(FlightRecorderTest, DisabledRecorderDropsSpans) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.SetEnabled(false);
  EXPECT_FALSE(recorder.Sample());
  recorder.Record("dropped", "test", 1, 1);
  { Span span(nullptr, "also.dropped", "test"); }
  EXPECT_TRUE(recorder.Snapshot().empty());
}

TEST_F(FlightRecorderTest, RingWrapsKeepingTheNewestEvents) {
  FlightRecorder& recorder = FlightRecorder::Global();
  constexpr int64_t kExtra = 256;
  const int64_t total =
      static_cast<int64_t>(FlightRecorder::kRingCapacity) + kExtra;
  for (int64_t i = 0; i < total; ++i) {
    recorder.Record("wrap", "test", /*start_micros=*/i, /*dur_micros=*/1);
  }
  std::vector<TraceEvent> events = recorder.Snapshot();
  // This thread's ring holds exactly capacity events (other tests ran on
  // this thread too, but ClearForTest zeroed the ring), and the oldest
  // kExtra were overwritten.
  ASSERT_EQ(events.size(), FlightRecorder::kRingCapacity);
  EXPECT_EQ(events.front().start_micros, kExtra);
  EXPECT_EQ(events.back().start_micros, total - 1);
}

std::string MakeTempDir() {
  char tmpl[] = "/tmp/ojv_flight_test_XXXXXX";
  const char* dir = mkdtemp(tmpl);
  EXPECT_NE(dir, nullptr);
  return dir;
}

TEST_F(FlightRecorderTest, Sigusr2DumpIsDeterministic) {
  FlightRecorder& recorder = FlightRecorder::Global();
  const std::string dir = MakeTempDir();
  recorder.Record("pre.signal", "test", 1, 2);
  // Install the handler, then stop the poller so this test (not a
  // 25ms-interval background thread) performs the dump: raise() sets
  // the pending flag, DrainPendingDump() consumes it exactly once.
  recorder.StartSignalDumps(dir);
  recorder.StopSignalDumps();
  std::string leftover = recorder.DrainPendingDump();  // poller may have won
  ASSERT_TRUE(leftover.empty()) << "unexpected pre-signal dump " << leftover;

  raise(SIGUSR2);
  std::string path = recorder.DrainPendingDump();
  EXPECT_EQ(path, dir + "/flight-1.json");
  EXPECT_EQ(recorder.DrainPendingDump(), "");  // flag consumed

  // The dump is Chrome trace_event JSON holding the recorded span.
  io::JsonValue doc;
  std::string error;
  ASSERT_TRUE(io::ParseJsonFile(path, &doc, &error)) << error;
  const io::JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  bool found = false;
  for (const io::JsonValue& ev : events->AsArray()) {
    if (ev.StringOr("name", "") == "pre.signal") found = true;
  }
  EXPECT_TRUE(found);

  // The API path shares the flag and the sequence number.
  recorder.RequestDump();
  EXPECT_EQ(recorder.DrainPendingDump(), dir + "/flight-2.json");
}

TEST_F(FlightRecorderTest, ConcurrentRecordVsSnapshotHammer) {
  FlightRecorder& recorder = FlightRecorder::Global();
  constexpr int kWriters = 4;
  constexpr int kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&recorder] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.Record("hammer", "test", i, 1);
      }
    });
  }
  std::thread reader([&recorder, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<TraceEvent> events = recorder.Snapshot();
      // Every observed event must be internally sane — wraparound and
      // concurrent writes never produce a null name (the marker) or a
      // negative duration.
      for (const TraceEvent& ev : events) {
        ASSERT_FALSE(ev.name.empty());
        ASSERT_GE(ev.dur_micros, 0);
      }
    }
  });
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  // Each writer thread's ring retains at most kRingCapacity events.
  std::vector<TraceEvent> events = recorder.Snapshot();
  EXPECT_LE(events.size(), kWriters * FlightRecorder::kRingCapacity);
  EXPECT_GE(events.size(), FlightRecorder::kRingCapacity);
}

}  // namespace
}  // namespace obs
}  // namespace ojv

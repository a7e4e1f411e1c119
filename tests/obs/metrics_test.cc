// Unit tests for the metrics core: Counter, Histogram, Registry.
// The thread-hammer cases run under every sanitizer configuration of
// tools/check.sh (including OJV_SANITIZE=thread), which is what verifies
// the relaxed-atomic counters are race-free.

#include "obs/metrics.h"

#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace ojv {
namespace obs {
namespace {

TEST(CounterTest, AddAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add(3);
  counter.Add(4);
  EXPECT_EQ(counter.value(), 7);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(CounterTest, ThreadHammer) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.value(), int64_t{kThreads} * kPerThread);
}

TEST(GaugeTest, SetAddAndReset) {
  Gauge gauge;
  EXPECT_EQ(gauge.value(), 0);
  gauge.Set(42);
  EXPECT_EQ(gauge.value(), 42);
  gauge.Set(7);  // unlike Counter, a gauge can go down
  EXPECT_EQ(gauge.value(), 7);
  gauge.Add(-10);
  EXPECT_EQ(gauge.value(), -3);  // and negative
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
}

TEST(GaugeTest, ThreadHammerOnAdd) {
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.Add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(gauge.value(), int64_t{kThreads} * kPerThread);
}

TEST(HistogramTest, CountSumAndBuckets) {
  Histogram h;
  h.Record(1);
  h.Record(2);
  h.Record(3);
  h.Record(1000);
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.sum(), 1006);
}

TEST(HistogramTest, NegativeValuesClampToZero) {
  // Durations can come out negative under wall-clock adjustment. They
  // land in bucket 0 either way, but an unclamped sum goes negative and
  // corrupts every mean (and the snapshot JSON) derived from it.
  Histogram h;
  h.Record(-5000);
  h.Record(-1);
  h.Record(10);
  EXPECT_EQ(h.count(), 3);
  EXPECT_EQ(h.sum(), 10);  // the negatives contributed 0, not -5001
  EXPECT_EQ(h.bucket(0), 2);
  EXPECT_GE(h.PercentileBound(50), 1);
}

TEST(HistogramTest, PercentileBounds) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.Record(1);
  h.Record(1 << 20);
  // p50 lands in the first bucket, p99.9 must cover the outlier.
  EXPECT_LE(h.PercentileBound(50), 1);
  EXPECT_GE(h.PercentileBound(99.9), 1 << 20);
}

TEST(HistogramTest, ThreadHammer) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.Record(t + 1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), int64_t{kThreads} * kPerThread);
}

TEST(RegistryTest, SameNameSameCounter) {
  Registry registry;
  Counter& a = registry.GetCounter("ojv.test.a");
  Counter& b = registry.GetCounter("ojv.test.a");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  EXPECT_EQ(b.value(), 5);
}

TEST(RegistryTest, SnapshotSortedByName) {
  Registry registry;
  registry.GetCounter("ojv.z").Add(1);
  registry.GetCounter("ojv.a").Add(2);
  registry.GetCounter("ojv.m").Add(3);
  auto snapshot = registry.CounterSnapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first, "ojv.a");
  EXPECT_EQ(snapshot[1].first, "ojv.m");
  EXPECT_EQ(snapshot[2].first, "ojv.z");
}

TEST(RegistryTest, ConcurrentGetAndBump) {
  Registry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < 1000; ++i) {
        registry.GetCounter("ojv.shared").Add(1);
        registry.GetHistogram("ojv.shared.h").Record(i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(registry.GetCounter("ojv.shared").value(), kThreads * 1000);
  EXPECT_EQ(registry.GetHistogram("ojv.shared.h").count(), kThreads * 1000);
}

TEST(RegistryTest, SameNameSameGauge) {
  Registry registry;
  Gauge& a = registry.GetGauge("ojv.test.g");
  Gauge& b = registry.GetGauge("ojv.test.g");
  EXPECT_EQ(&a, &b);
  a.Set(11);
  auto snapshot = registry.GaugeSnapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].first, "ojv.test.g");
  EXPECT_EQ(snapshot[0].second, 11);
}

TEST(RegistryTest, ResetForTestZeroesEverything) {
  Registry registry;
  registry.GetCounter("ojv.x").Add(9);
  registry.GetGauge("ojv.g").Set(9);
  registry.GetHistogram("ojv.y").Record(9);
  registry.ResetForTest();
  EXPECT_EQ(registry.GetCounter("ojv.x").value(), 0);
  EXPECT_EQ(registry.GetGauge("ojv.g").value(), 0);
  EXPECT_EQ(registry.GetHistogram("ojv.y").count(), 0);
}

TEST(RegistryTest, WriteJsonIsWellFormed) {
  Registry registry;
  registry.GetCounter("ojv.c\"quote").Add(1);
  registry.GetHistogram("ojv.h").Record(7);
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  // The quote in the counter name must come out escaped.
  EXPECT_NE(json.find("ojv.c\\\"quote"), std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace ojv

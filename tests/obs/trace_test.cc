// Unit tests for TraceContext + Span: parenting, args, the
// FinishWithDuration contract and export formats.

#include "obs/trace.h"

#include <sstream>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace ojv {
namespace obs {
namespace {

TEST(SpanTest, NullContextIsInert) {
  Span span(nullptr, "ivm.maintain", "ivm");
  EXPECT_FALSE(span.active());
  span.AddArg("rows", 1);  // must not crash
}

TEST(SpanTest, RecordsNameCategoryAndArgs) {
  TraceContext ctx;
  {
    Span span(&ctx, "ivm.maintain", "ivm");
    span.AddArg("rows", 42);
    span.AddArg("table", std::string("lineitem"));
  }
  ASSERT_EQ(ctx.event_count(), 1u);
  std::vector<TraceEvent> events = ctx.Snapshot();
  EXPECT_EQ(events[0].name, "ivm.maintain");
  EXPECT_EQ(events[0].category, "ivm");
  EXPECT_GE(events[0].dur_micros, 0);
  EXPECT_EQ(events[0].ArgOr("rows", -1), 42);
  ASSERT_NE(events[0].StrArg("table"), nullptr);
  EXPECT_EQ(*events[0].StrArg("table"), "lineitem");
}

TEST(SpanTest, NestingSetsParent) {
  TraceContext ctx;
  {
    Span outer(&ctx, "outer", "test");
    {
      Span inner(&ctx, "inner", "test");
    }
  }
  std::vector<TraceEvent> events = ctx.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  // BeginSpan appends in open order: outer first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].parent, -1);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].parent, 0);
}

TEST(SpanTest, RecordCompleteParentsUnderOpenSpan) {
  TraceContext ctx;
  {
    Span outer(&ctx, "outer", "test");
    ctx.RecordComplete("leaf", "exec", 0, 5, {{"rows_out", 3}});
  }
  std::vector<TraceEvent> events = ctx.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].name, "leaf");
  EXPECT_EQ(events[1].parent, 0);
  EXPECT_EQ(events[1].dur_micros, 5);
}

TEST(SpanTest, FinishWithDurationStampsExactly) {
  TraceContext ctx;
  Span span(&ctx, "stage", "test");
  span.FinishWithDuration(1234.0);
  std::vector<TraceEvent> events = ctx.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].dur_micros, 1234);
  // The legacy stats number and the trace duration are one measurement:
  // StageMicros must return what the caller fed in, not wall time.
  EXPECT_DOUBLE_EQ(ctx.StageMicros("stage"), 1234.0);
}

TEST(TraceContextTest, QueriesAggregateByName) {
  TraceContext ctx;
  ctx.RecordComplete("exec.join", "exec", 0, 10, {{"rows_out", 4}});
  ctx.RecordComplete("exec.join", "exec", 10, 20, {{"rows_out", 6}});
  EXPECT_TRUE(ctx.HasSpan("exec.join"));
  EXPECT_EQ(ctx.SpanCount("exec.join"), 2);
  EXPECT_DOUBLE_EQ(ctx.StageMicros("exec.join"), 30.0);
  EXPECT_EQ(ctx.ArgSum("exec.join", "rows_out"), 10);
}

TEST(TraceContextTest, ChromeTraceIsWellFormedJson) {
  TraceContext ctx;
  {
    Span span(&ctx, "ivm.maintain", "ivm");
    span.AddArg("view", std::string("v3 \"quoted\""));
  }
  std::ostringstream out;
  ctx.WriteChromeTrace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

TEST(TraceContextTest, StatsJsonContainsSpansAndMetrics) {
  TraceContext ctx;
  ctx.RecordComplete("exec.scan", "exec", 0, 3, {{"rows_out", 7}});
  std::ostringstream out;
  ctx.WriteStatsJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"exec.scan\""), std::string::npos);
}

TEST(TraceContextTest, ConcurrentSpansFromManyThreads) {
  TraceContext ctx;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ctx] {
      for (int i = 0; i < 200; ++i) {
        Span span(&ctx, "worker", "test");
        span.AddArg("i", i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ctx.event_count(), 8u * 200u);
}

}  // namespace
}  // namespace obs
}  // namespace ojv

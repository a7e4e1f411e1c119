// Snapshot view reads under concurrent maintenance (DESIGN.md §17).
//
// The first half pins the ViewSnapshot semantics single-threaded:
// generation pinning, fresh versus snapshot reads, staleness accounting,
// transactions, and the lifetime rules (a pinned generation survives later publishes and
// even DropView).
//
// The second half is the TSan regression for the ReadView lock-escape:
// the old API returned `&maintainer->view()` after its lock_guard
// released, so a reader thread scanned the very vectors the background
// refresher was rewriting — a data race TSan flags reliably. With
// snapshot handles the same workload must be race-free AND no reader
// may ever observe a mid-refresh view state (the revert/replay's
// intermediate contents violate the workload's row-count invariant).

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ivm/database.h"
#include "obs/metrics.h"
#include "obs/windowed.h"

namespace ojv {
namespace {

using deferred::RefreshPolicy;
using deferred::ThresholdConfig;

ScalarExprPtr Eq(const char* t1, const char* c1, const char* t2,
                 const char* c2) {
  return ScalarExpr::Compare(CompareOp::kEq, ScalarExpr::Column(t1, c1),
                             ScalarExpr::Column(t2, c2));
}

class SnapshotReadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.catalog()->CreateTable(
        "dept",
        Schema({ColumnDef{"d_id", ValueType::kInt64, false},
                ColumnDef{"d_name", ValueType::kString, false}}),
        {"d_id"});
    db_.catalog()->CreateTable(
        "emp",
        Schema({ColumnDef{"e_id", ValueType::kInt64, false},
                ColumnDef{"e_dept", ValueType::kInt64, false},
                ColumnDef{"e_salary", ValueType::kFloat64, true}}),
        {"e_id"});
  }

  ViewDef MakeDeptView(const char* name = "dept_emp") {
    RelExprPtr tree = RelExpr::Join(
        JoinKind::kFullOuter, RelExpr::Scan("dept"), RelExpr::Scan("emp"),
        Eq("dept", "d_id", "emp", "e_dept"));
    return ViewDef(name, tree,
                   {{"dept", "d_id"},
                    {"dept", "d_name"},
                    {"emp", "e_id"},
                    {"emp", "e_dept"},
                    {"emp", "e_salary"}},
                   *db_.catalog());
  }

  Row Dept(int64_t id, const char* name) {
    return Row{Value::Int64(id), Value::String(name)};
  }
  Row Emp(int64_t id, int64_t dept, double salary) {
    return Row{Value::Int64(id), Value::Int64(dept), Value::Float64(salary)};
  }
  Row Key(int64_t id) { return Row{Value::Int64(id)}; }

  Database db_;
};

TEST_F(SnapshotReadTest, SnapshotPinsItsGeneration) {
  db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng")});
  db_.Insert("emp", {Emp(10, 1, 100.0)});

  ViewSnapshot before = db_.ReadView("dept_emp");
  ASSERT_TRUE(before.valid());
  EXPECT_EQ(before.size(), 1);

  // Later maintenance publishes new generations; the pinned one must
  // keep its exact contents.
  db_.Insert("emp", {Emp(11, 1, 80.0)});
  ViewSnapshot after = db_.ReadView("dept_emp");
  EXPECT_EQ(before.size(), 1);
  EXPECT_EQ(after.size(), 2);
  EXPECT_GT(after.generation(), before.generation());
}

// The per-view serve gauges, read through the registry: the published
// generation number, the age of the generation the last reader pinned,
// and the count of live reader handles.
TEST_F(SnapshotReadTest, ServeGaugesTrackPublishesAndPins) {
  const char* kView = "serve_gauges";
  auto gauge = [&](const char* base) {
    return obs::Registry::Global()
        .GetGauge(obs::LabeledMetric(base, "view", kView))
        .value();
  };
  db_.CreateMaterializedView(MakeDeptView(kView));
  db_.Insert("dept", {Dept(1, "eng")});

  // After a publish (the fresh read's), with no reader left.
  uint64_t published = 0;
  {
    ViewSnapshot fresh = db_.ReadView(kView);
    ASSERT_TRUE(fresh.valid());
    published = fresh.generation();
  }
  EXPECT_EQ(gauge("ojv.serve.generation"), static_cast<int64_t>(published));
  EXPECT_EQ(gauge("ojv.serve.pinned_readers"), 0);
  EXPECT_GE(gauge("ojv.serve.generation_age_micros"), 0);

  // While a snapshot is held: same generation, one pin, and the age of
  // the pinned generation at acquire time.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  {
    ViewSnapshot held = db_.AcquireSnapshot(kView);
    ASSERT_TRUE(held.valid());
    EXPECT_EQ(held.generation(), published);
    EXPECT_EQ(gauge("ojv.serve.generation"),
              static_cast<int64_t>(published));
    EXPECT_EQ(gauge("ojv.serve.pinned_readers"), 1);
    EXPECT_GE(gauge("ojv.serve.generation_age_micros"), 2000);
  }

  // After it is released.
  EXPECT_EQ(gauge("ojv.serve.pinned_readers"), 0);
  EXPECT_EQ(gauge("ojv.serve.generation"), static_cast<int64_t>(published));
  EXPECT_GE(gauge("ojv.serve.generation_age_micros"), 2000);
}

TEST_F(SnapshotReadTest, UnknownAndMismatchedViewsAreInvalid) {
  db_.CreateMaterializedView(MakeDeptView());
  EXPECT_EQ(db_.ReadView("nope"), nullptr);
  EXPECT_FALSE(db_.AcquireSnapshot("nope").valid());
  // ReadView answers row views only; an invalid handle mirrors the old
  // nullptr return. AcquireSnapshot serves both kinds.
  db_.CreateAggregateView(
      MakeDeptView("dept_agg"), {{"dept", "d_name"}},
      {{AggregateSpec::Kind::kCountStar, {}, "n"}});
  EXPECT_EQ(db_.ReadView("dept_agg"), nullptr);
  EXPECT_TRUE(db_.AcquireSnapshot("dept_agg").valid());
  EXPECT_TRUE(db_.ReadAggregateRelation("dept_agg").valid());
}

TEST_F(SnapshotReadTest, SnapshotReadDoesNotRefreshOnDemandBacklog) {
  db_.CreateMaterializedView(MakeDeptView());
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand);
  db_.Insert("dept", {Dept(1, "eng")});
  db_.Insert("emp", {Emp(10, 1, 100.0)});
  ASSERT_GT(db_.PendingRows("dept_emp"), 0);

  // AcquireSnapshot returns the last published generation; the backlog
  // stays (the opportunistic catch-up republishes the stored contents
  // but never runs the deferred refresh).
  ViewSnapshot snap = db_.AcquireSnapshot("dept_emp");
  ASSERT_TRUE(snap.valid());
  EXPECT_EQ(snap.size(), 0);  // created empty, nothing applied yet
  EXPECT_GT(db_.PendingRows("dept_emp"), 0);
  EXPECT_GT(snap.staleness_micros(obs::SteadyNowMicros()), 0);

  // ReadView keeps read-your-writes: it drains the backlog.
  ViewSnapshot fresh = db_.ReadView("dept_emp");
  EXPECT_EQ(db_.PendingRows("dept_emp"), 0);
  EXPECT_EQ(fresh.size(), 1);  // dept 1 joined with emp 10
  EXPECT_EQ(fresh.staleness_micros(obs::SteadyNowMicros()), 0);
}

TEST_F(SnapshotReadTest, PinnedSnapshotSurvivesDropView) {
  db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng"), Dept(2, "ops")});
  ViewSnapshot snap = db_.ReadView("dept_emp");
  ASSERT_EQ(snap.size(), 2);
  ASSERT_TRUE(db_.DropView("dept_emp"));
  // The handle's refcount keeps the retired generation alive.
  EXPECT_EQ(snap.size(), 2);
  EXPECT_EQ(db_.ReadView("dept_emp"), nullptr);
}

// A fresh read inside a transaction sees the transaction's own writes,
// but must not publish them: until Commit every other reader pins the
// last committed generation, and after Rollback the writes are gone.
TEST_F(SnapshotReadTest, FreshReadInsideTransactionPublishesNothing) {
  db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng")});
  // What a concurrent serving-path reader pins.
  auto other_reader_rows = [&] {
    int64_t rows = -1;
    std::thread reader([&] { rows = db_.AcquireSnapshot("dept_emp").size(); });
    reader.join();
    return rows;
  };
  ASSERT_EQ(other_reader_rows(), 1);

  ASSERT_TRUE(db_.BeginTransaction());
  db_.Insert("dept", {Dept(2, "ops")});
  EXPECT_EQ(db_.ReadView("dept_emp").size(), 2);  // its own write
  EXPECT_EQ(other_reader_rows(), 1);
  ASSERT_TRUE(db_.Rollback());
  EXPECT_EQ(other_reader_rows(), 1);
  EXPECT_EQ(db_.ReadView("dept_emp").size(), 1);

  ASSERT_TRUE(db_.BeginTransaction());
  db_.Insert("dept", {Dept(3, "hr")});
  EXPECT_EQ(db_.ReadView("dept_emp").size(), 2);
  EXPECT_EQ(other_reader_rows(), 1);
  ASSERT_TRUE(db_.Commit().ok());
  EXPECT_EQ(other_reader_rows(), 2);
  EXPECT_EQ(db_.ReadView("dept_emp").size(), 2);
}

// A refresh inside a transaction runs on contents that hold the
// transaction's uncommitted rows, so it must not publish them either:
// not through Refresh, RefreshAll, or the drain that switching a view
// back to kImmediate performs. The first read after the transaction
// ends publishes instead.
TEST_F(SnapshotReadTest, RefreshInsideTransactionPublishesNothing) {
  db_.CreateMaterializedView(MakeDeptView());
  db_.Insert("dept", {Dept(1, "eng")});
  const std::vector<std::pair<const char*, std::function<void()>>> calls = {
      {"Refresh", [&] { db_.Refresh("dept_emp"); }},
      {"RefreshAll", [&] { db_.RefreshAll(); }},
      {"SetRefreshPolicy",
       [&] { db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kImmediate); }},
  };
  for (const auto& [label, call] : calls) {
    ASSERT_TRUE(db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand));
    ASSERT_EQ(db_.ReadView("dept_emp").size(), 1);
    ASSERT_TRUE(db_.BeginTransaction());
    db_.Insert("dept", {Dept(2, "ops")});
    call();
    EXPECT_EQ(db_.AcquireSnapshot("dept_emp").size(), 1) << label;
    ASSERT_TRUE(db_.Rollback());
    EXPECT_EQ(db_.AcquireSnapshot("dept_emp").size(), 1) << label;
  }

  ASSERT_TRUE(db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kOnDemand));
  ASSERT_TRUE(db_.BeginTransaction());
  db_.Insert("dept", {Dept(2, "ops")});
  db_.Refresh("dept_emp");
  ASSERT_TRUE(db_.Commit().ok());
  EXPECT_EQ(db_.AcquireSnapshot("dept_emp").size(), 2);
}

// A view created inside a transaction is built from the transaction's
// uncommitted rows, so it publishes nothing until the transaction ends;
// the first read afterwards publishes the committed (or rolled-back)
// contents.
TEST_F(SnapshotReadTest, ViewCreatedInsideTransactionPublishesAfterItEnds) {
  db_.Insert("dept", {Dept(1, "eng")});
  auto other_reader = [&](const char* view) {
    ViewSnapshot snap;
    std::thread reader([&] { snap = db_.AcquireSnapshot(view); });
    reader.join();
    return snap;
  };
  auto holds_dept = [](const ViewSnapshot& snap, int64_t id) {
    if (!snap.valid()) return false;
    for (const Row& row : snap.relation().rows()) {
      if (row[0] == Value::Int64(id)) return true;
    }
    return false;
  };

  ASSERT_TRUE(db_.BeginTransaction());
  db_.Insert("dept", {Dept(2, "ops")});
  ASSERT_NE(db_.CreateMaterializedView(MakeDeptView()), nullptr);
  EXPECT_FALSE(holds_dept(other_reader("dept_emp"), 2));
  ASSERT_TRUE(db_.Rollback());
  EXPECT_EQ(other_reader("dept_emp").size(), 1);

  ASSERT_TRUE(db_.BeginTransaction());
  db_.Insert("dept", {Dept(2, "ops")});
  ASSERT_NE(db_.CreateMaterializedView(MakeDeptView("dept_emp2")), nullptr);
  EXPECT_FALSE(holds_dept(other_reader("dept_emp2"), 2));
  ASSERT_TRUE(db_.Commit().ok());
  EXPECT_EQ(other_reader("dept_emp2").size(), 2);
}

// --- the TSan regression --------------------------------------------------
//
// Reader threads pin snapshots while the background refresher replays
// staged update pairs into the same view. The workload is built so
// every *committed* view state has exactly kEmps rows (every emp joins
// its dept; every dept is occupied): any smaller or larger row count is
// a mid-refresh state (an update pair's delete half applied, its insert
// half not yet) that snapshot isolation must make unobservable. Before
// the ViewSnapshot API landed, this test's reader dereferenced a
// MaterializedView* while the refresher rewrote it: a hard data race
// under TSan, and the row-count invariant failed within a few storms.
TEST_F(SnapshotReadTest, ConcurrentReadersNeverObserveMidRefreshState) {
  constexpr int kDepts = 4;
  constexpr int kEmps = 32;
  constexpr int kStatements = 200;
  constexpr int kReaders = 2;

  db_.CreateMaterializedView(MakeDeptView());
  std::vector<Row> depts;
  for (int d = 0; d < kDepts; ++d) {
    depts.push_back(Dept(d, d % 2 == 0 ? "eng" : "ops"));
  }
  db_.Insert("dept", depts);
  std::vector<Row> emps;
  for (int e = 0; e < kEmps; ++e) emps.push_back(Emp(e, e % kDepts, 1.0));
  db_.Insert("emp", emps);

  // Tiny thresholds + a fast worker tick = a continuous refresh storm.
  ThresholdConfig config;
  config.max_pending_rows = 4;
  db_.SetRefreshPolicy("dept_emp", RefreshPolicy::kThreshold, config);
  // Publish the populated baseline generation before the readers start:
  // from here on every committed state of the view has exactly kEmps
  // rows, so any other size a snapshot shows is a torn read.
  ASSERT_EQ(db_.ReadView("dept_emp").size(), kEmps);
  db_.StartBackgroundRefresh(std::chrono::milliseconds(1));

  std::atomic<bool> done{false};
  std::atomic<int64_t> reads{0};
  std::atomic<int64_t> bad_sizes{0};
  std::atomic<int64_t> regressions{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      uint64_t last_generation = 0;
      while (!done.load(std::memory_order_acquire)) {
        ViewSnapshot snap = db_.AcquireSnapshot("dept_emp");
        if (!snap.valid()) continue;
        ++reads;
        if (snap.size() != kEmps) ++bad_sizes;
        // Scan the pinned contents — this is the loop that raced with
        // the refresher when reads returned interior pointers.
        int64_t rows = 0;
        for (const Row& row : snap.relation().rows()) {
          rows += static_cast<int64_t>(!row.empty());
        }
        if (rows != kEmps) ++bad_sizes;
        if (snap.generation() < last_generation) ++regressions;
        last_generation = snap.generation();
      }
    });
  }

  // Writer: salary updates only — the view's committed row count never
  // changes, but every statement stages an update pair whose replay
  // passes through the forbidden intermediate states. Keep storming
  // until the readers have demonstrably overlapped the refreshes (on a
  // single-core host the fixed statement budget can finish before the
  // reader threads are even scheduled).
  int i = 0;
  while (i < kStatements || (reads.load() < 100 && i < 100 * kStatements)) {
    const int64_t e = i % kEmps;
    ASSERT_TRUE(
        db_.Update("emp", {Key(e)}, {Emp(e, e % kDepts, 1.0 + i)}).ok());
    ++i;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  db_.StopBackgroundRefresh();

  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(bad_sizes.load(), 0) << "a reader observed a mid-refresh state";
  EXPECT_EQ(regressions.load(), 0) << "generation numbers went backwards";

  // Quiesced: one fresh read drains what the storm left behind.
  ViewSnapshot final_snap = db_.ReadView("dept_emp");
  EXPECT_EQ(final_snap.size(), kEmps);
}

}  // namespace
}  // namespace ojv

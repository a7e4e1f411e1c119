// Secondary hash indexes against a scan oracle: random inserts, deletes,
// updates (delete + reinsert of a key), slot reuse and the rebuilds that
// drop stale entries, over a column with hundreds of rows per key, a
// nullable column and a two-column index. Plus the foreign-key index a
// catalog builds for a child table that already has rows.

#include <gtest/gtest.h>

#include <algorithm>

#include "catalog/catalog.h"
#include "common/rng.h"

namespace ojv {
namespace {

// Ids of the rows ForEachIndexed visits, sorted.
std::vector<int64_t> Indexed(const Table& t, int index, const Row& key) {
  std::vector<int64_t> ids;
  t.ForEachIndexed(index, key, [&](const Row& row) {
    ids.push_back(row[0].int64());
    return true;
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

// The same through a full scan: live rows whose index columns equal the
// key under SQL equality (a NULL matches nothing).
std::vector<int64_t> Scanned(const Table& t, const std::vector<int>& positions,
                             const Row& key) {
  std::vector<int64_t> ids;
  for (const Value& v : key) {
    if (v.is_null()) return ids;
  }
  t.ForEach([&](const Row& row) {
    for (size_t i = 0; i < positions.size(); ++i) {
      if (row[static_cast<size_t>(positions[i])] != key[i]) return;
    }
    ids.push_back(row[0].int64());
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

class IndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexPropertyTest, LookupsMatchAScan) {
  Rng rng(GetParam());
  // id | hot (3 values: hundreds of rows per key) | sparse (nullable) |
  // a, b (a two-column index)
  Table t("t",
          Schema({ColumnDef{"id", ValueType::kInt64, false},
                  ColumnDef{"hot", ValueType::kInt64, false},
                  ColumnDef{"sparse", ValueType::kInt64, true},
                  ColumnDef{"a", ValueType::kInt64, true},
                  ColumnDef{"b", ValueType::kString, false}}),
          {"id"});
  const int hot = t.AddIndex({1});
  const int sparse = t.AddIndex({2});
  const int pair = t.AddIndex({3, 4});
  EXPECT_EQ(t.AddIndex({1}), hot);  // the same columns share one index

  auto random_row = [&](int64_t id) {
    return Row{Value::Int64(id), Value::Int64(rng.Uniform(0, 2)),
               rng.Chance(0.3) ? Value::Null()
                               : Value::Int64(rng.Uniform(0, 40)),
               rng.Chance(0.1) ? Value::Null()
                               : Value::Int64(rng.Uniform(0, 5)),
               Value::String(rng.Chance(0.5) ? "x" : "y")};
  };
  std::vector<int64_t> live;
  int64_t next_id = 0;
  size_t rebuilds = 0;
  size_t last_hot_entries = 0;
  for (int step = 0; step < 150; ++step) {
    // 45% insert, 25% delete, 30% update batches: the table grows to
    // hundreds of rows per `hot` key while deletes and updates leave
    // stale entries behind.
    const int64_t draw = rng.Uniform(0, 99);
    const int op = draw < 45 ? 0 : (draw < 70 ? 1 : 2);
    const int n = static_cast<int>(rng.Uniform(1, 40));
    for (int i = 0; i < n; ++i) {
      if (op == 0 || live.empty()) {  // insert
        ASSERT_TRUE(t.Insert(random_row(next_id)));
        live.push_back(next_id++);
      } else {
        // Delete a random live row; an update reinserts the same key
        // (which reuses the slot just freed).
        const size_t pick = static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(live.size()) - 1));
        const int64_t id = live[pick];
        ASSERT_TRUE(t.DeleteByKey(Row{Value::Int64(id)}, nullptr));
        if (op == 2) {
          ASSERT_TRUE(t.Insert(random_row(id)));
        } else {
          live[pick] = live.back();
          live.pop_back();
        }
      }
    }
    if (t.index_entries(hot) < last_hot_entries) ++rebuilds;
    last_hot_entries = t.index_entries(hot);
    // Inserts rebuild an index whose stale entries outnumber its live
    // rows, so after one the entries stay within the bound.
    if (op != 1) {
      for (int index : {hot, sparse, pair}) {
        EXPECT_LE(t.index_entries(index),
                  std::max<size_t>(64, 2 * static_cast<size_t>(t.size())));
      }
    }
    for (int64_t v = 0; v <= 3; ++v) {
      const Row key{Value::Int64(v)};
      ASSERT_EQ(Indexed(t, hot, key), Scanned(t, {1}, key)) << "hot " << v;
    }
    for (int64_t v = -1; v <= 41; v += 3) {
      const Row key{Value::Int64(v)};
      ASSERT_EQ(Indexed(t, sparse, key), Scanned(t, {2}, key))
          << "sparse " << v;
    }
    EXPECT_TRUE(Indexed(t, sparse, Row{Value::Null()}).empty());
    for (int64_t a = 0; a <= 5; ++a) {
      for (const char* b : {"x", "y"}) {
        const Row key{Value::Int64(a), Value::String(b)};
        ASSERT_EQ(Indexed(t, pair, key), Scanned(t, {3, 4}, key))
            << "pair " << a << b;
      }
    }
  }
  EXPECT_GT(rebuilds, 0u);  // the churn did compact the index
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexPropertyTest,
                         ::testing::Range<uint64_t>(1, 9));

TEST(IndexTest, LookupStopsWhenTheCallbackSaysSo) {
  Table t("t",
          Schema({ColumnDef{"id", ValueType::kInt64, false},
                  ColumnDef{"k", ValueType::kInt64, false}}),
          {"id"});
  const int index = t.AddIndex({1});
  for (int64_t i = 0; i < 5; ++i) {
    t.Insert(Row{Value::Int64(i), Value::Int64(7)});
  }
  int visited = 0;
  t.ForEachIndexed(index, Row{Value::Int64(7)}, [&](const Row&) {
    ++visited;
    return false;
  });
  EXPECT_EQ(visited, 1);
}

TEST(IndexTest, AccessPathPrefersTheUniqueKey) {
  Table t("t",
          Schema({ColumnDef{"id", ValueType::kInt64, false},
                  ColumnDef{"k", ValueType::kInt64, true},
                  ColumnDef{"m", ValueType::kInt64, true}}),
          {"id"});
  const int k = t.AddIndex({1});
  EXPECT_EQ(t.AccessPath({0}), Table::kUniqueKeyPath);
  EXPECT_EQ(t.AccessPath({1, 0}), Table::kUniqueKeyPath);
  EXPECT_EQ(t.AccessPath({2, 1}), k);  // covered, with an extra column
  EXPECT_EQ(t.AccessPath({2}), Table::kNoPath);
  EXPECT_EQ(t.FindIndex({1}), k);
  EXPECT_EQ(t.FindIndex({1, 2}), Table::kNoPath);
}

// An FK declared on a child table that already has rows indexes them.
TEST(IndexTest, ForeignKeyIndexCoversExistingChildRows) {
  Catalog catalog;
  Table* parent = catalog.CreateTable(
      "p", Schema({ColumnDef{"p_id", ValueType::kInt64, false}}), {"p_id"});
  Table* child = catalog.CreateTable(
      "c",
      Schema({ColumnDef{"c_id", ValueType::kInt64, false},
              ColumnDef{"c_p", ValueType::kInt64, true}}),
      {"c_id"});
  for (int64_t i = 0; i < 4; ++i) parent->Insert(Row{Value::Int64(i)});
  for (int64_t i = 0; i < 40; ++i) {
    child->Insert(Row{Value::Int64(i),
                      i % 5 == 4 ? Value::Null() : Value::Int64(i % 4)});
  }
  child->DeleteByKey(Row{Value::Int64(0)}, nullptr);
  ForeignKey fk{"c", {"c_p"}, "p", {"p_id"}};
  catalog.AddForeignKey(fk);
  const int index = catalog.ChildIndexOf(catalog.foreign_keys()[0]);
  ASSERT_NE(index, Table::kNoPath);
  EXPECT_EQ(child->index_positions(index), std::vector<int>{1});
  for (int64_t v = 0; v < 5; ++v) {
    const Row key{Value::Int64(v)};
    EXPECT_EQ(Indexed(*child, index, key), Scanned(*child, {1}, key)) << v;
  }
  child->Insert(Row{Value::Int64(100), Value::Int64(2)});
  EXPECT_EQ(Indexed(*child, index, Row{Value::Int64(2)}),
            Scanned(*child, {1}, Row{Value::Int64(2)}));
  EXPECT_GT(child->index_bytes(), 0u);
}

}  // namespace
}  // namespace ojv

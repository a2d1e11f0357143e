#include "datalog/relation.h"

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include <gtest/gtest.h>

namespace lbtrust::datalog {
namespace {

Tuple T(int a, int b) { return {Value::Int(a), Value::Int(b)}; }

TEST(RelationTest, InsertDeduplicates) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert(T(1, 2)));
  EXPECT_FALSE(rel.Insert(T(1, 2)));
  EXPECT_TRUE(rel.Insert(T(1, 3)));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_TRUE(rel.Contains(T(1, 2)));
  EXPECT_FALSE(rel.Contains(T(9, 9)));
}

TEST(RelationTest, LookupByMask) {
  Relation rel(2);
  for (int i = 0; i < 10; ++i) {
    rel.Insert(T(i % 3, i));
  }
  // Column 0 == 1: rows 1, 4, 7.
  const auto ids = rel.Lookup(0b01, {Value::Int(1)});
  EXPECT_EQ(ids.size(), 3u);
  for (uint32_t id : ids) {
    EXPECT_EQ(rel.ValueAt(id, 0), Value::Int(1));
  }
  // Both columns bound: exact probe.
  EXPECT_EQ(rel.Lookup(0b11, {Value::Int(2), Value::Int(5)}).size(), 1u);
  EXPECT_TRUE(rel.Lookup(0b11, {Value::Int(2), Value::Int(6)}).empty());
}

TEST(RelationTest, IndexExtendsAfterInserts) {
  Relation rel(2);
  rel.Insert(T(1, 1));
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(1)}).size(), 1u);  // builds index
  rel.Insert(T(1, 2));
  rel.Insert(T(2, 9));
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(1)}).size(), 2u);  // extended
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(2)}).size(), 1u);
}

TEST(RelationTest, MatchesWildcard) {
  Relation rel(2);
  EXPECT_FALSE(rel.Matches(0, {}));
  rel.Insert(T(1, 2));
  EXPECT_TRUE(rel.Matches(0, {}));
  EXPECT_TRUE(rel.Matches(0b10, {Value::Int(2)}));
  EXPECT_FALSE(rel.Matches(0b10, {Value::Int(3)}));
}

TEST(RelationTest, EraseRebuilds) {
  Relation rel(2);
  for (int i = 0; i < 5; ++i) rel.Insert(T(1, i));
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(1)}).size(), 5u);
  EXPECT_TRUE(rel.Erase(T(1, 3)));
  EXPECT_FALSE(rel.Erase(T(1, 3)));
  EXPECT_EQ(rel.size(), 4u);
  EXPECT_FALSE(rel.Contains(T(1, 3)));
  // Indexes were invalidated and rebuilt correctly.
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(1)}).size(), 4u);
}

TEST(RelationTest, EraseMaintainsEveryIndexInPlace) {
  // Build several indexes with different masks, then erase from the
  // middle, the end, and the front; every index must keep answering
  // exactly as a freshly built one would.
  Relation rel(2);
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) rel.Insert(T(a, b));
  }
  // Materialize three indexes.
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(1)}).size(), 4u);
  EXPECT_EQ(rel.Lookup(0b10, {Value::Int(2)}).size(), 4u);
  EXPECT_EQ(rel.Lookup(0b11, T(3, 3)).size(), 1u);

  EXPECT_TRUE(rel.Erase(T(1, 2)));   // middle row
  EXPECT_TRUE(rel.Erase(T(3, 3)));   // last row
  EXPECT_TRUE(rel.Erase(T(0, 0)));   // first row
  EXPECT_EQ(rel.size(), 13u);

  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(1)}).size(), 3u);
  EXPECT_EQ(rel.Lookup(0b10, {Value::Int(2)}).size(), 3u);
  EXPECT_EQ(rel.Lookup(0b11, T(3, 3)).size(), 0u);
  EXPECT_EQ(rel.Lookup(0b11, T(1, 3)).size(), 1u);
  // Row ids handed back by Lookup must still point at the right rows.
  for (uint32_t id : rel.Lookup(0b01, {Value::Int(2)})) {
    EXPECT_EQ(rel.ValueAt(id, 0), Value::Int(2));
  }
  for (uint32_t id : rel.Lookup(0b10, {Value::Int(0)})) {
    EXPECT_EQ(rel.ValueAt(id, 1), Value::Int(0));
  }
}

TEST(RelationTest, ErasePatchesPartiallyBuiltIndexes) {
  // An index built before later inserts has built_upto < rows(); erasing
  // an indexed row moves an unindexed row below built_upto and the index
  // must pick it up exactly once.
  Relation rel(2);
  for (int i = 0; i < 3; ++i) rel.Insert(T(0, i));
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(0)}).size(), 3u);  // build index
  for (int i = 3; i < 6; ++i) rel.Insert(T(0, i));  // beyond built_upto
  EXPECT_TRUE(rel.Erase(T(0, 1)));  // moves row 5 into slot 1
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(0)}).size(), 5u);
  EXPECT_EQ(rel.Lookup(0b10, {Value::Int(5)}).size(), 1u);
  // Erase a row the index has never seen.
  EXPECT_TRUE(rel.Erase(T(0, 4)));
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(0)}).size(), 4u);
  EXPECT_EQ(rel.Lookup(0b10, {Value::Int(4)}).size(), 0u);
}

TEST(RelationTest, EraseThenInsertKeepsIndexesConsistent) {
  Relation rel(2);
  for (int i = 0; i < 8; ++i) rel.Insert(T(i % 2, i));
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(0)}).size(), 4u);
  EXPECT_TRUE(rel.Erase(T(0, 4)));
  EXPECT_TRUE(rel.Insert(T(0, 100)));
  EXPECT_TRUE(rel.Insert(T(0, 4)));  // re-insert the erased tuple
  EXPECT_EQ(rel.Lookup(0b01, {Value::Int(0)}).size(), 5u);
  EXPECT_EQ(rel.Lookup(0b10, {Value::Int(4)}).size(), 1u);
  EXPECT_EQ(rel.Lookup(0b10, {Value::Int(100)}).size(), 1u);
}

TEST(RelationTest, ZeroArity) {
  Relation rel(0);
  EXPECT_TRUE(rel.Insert({}));
  EXPECT_FALSE(rel.Insert({}));
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains({}));
}

TEST(RelationTest, ClearResets) {
  Relation rel(2);
  rel.Insert(T(1, 2));
  rel.Clear();
  EXPECT_TRUE(rel.empty());
  EXPECT_FALSE(rel.Contains(T(1, 2)));
  EXPECT_TRUE(rel.Insert(T(1, 2)));
}

// --- Append-only / checked mixing is an always-on hard failure -------------
// (Previously assert-only, so Release builds silently broke set semantics.)

TEST(RelationAppendOnlyDeathTest, CheckedMutationsAfterAppendHardFail) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Relation rel(2);
  IdTuple row = InternTuple(rel.pool(), T(1, 2));
  rel.AppendUnchecked(row.data());
  EXPECT_EQ(rel.size(), 1u);
  EXPECT_DEATH(rel.InsertIds(row.data()), "AppendUnchecked");
  EXPECT_DEATH(rel.EraseIds(row.data()), "AppendUnchecked");
  // Clear resets the append-only mode; checked use works again.
  rel.Clear();
  EXPECT_TRUE(rel.InsertIds(row.data()));
}

TEST(RelationAppendOnlyDeathTest, AppendAfterCheckedInsertHardFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Relation rel(2);
  ASSERT_TRUE(rel.Insert(T(1, 2)));
  IdTuple row = InternTuple(rel.pool(), T(3, 4));
  EXPECT_DEATH(rel.AppendUnchecked(row.data()), "checked rows");
}

// --- Arity cap (mask bits address columns; 65 columns would shift UB) ------

TEST(RelationTest, ArityAtTheCapWorks) {
  // 63 and 64 columns are legal: bit 63 is the last addressable column.
  for (size_t arity : {size_t{63}, size_t{64}}) {
    Relation rel(arity);
    Tuple wide;
    for (size_t i = 0; i < arity; ++i) {
      wide.push_back(Value::Int(static_cast<int64_t>(i)));
    }
    EXPECT_TRUE(rel.Insert(wide));
    EXPECT_FALSE(rel.Insert(wide));
    EXPECT_TRUE(rel.Contains(wide));
    // Probe on the last column alone.
    uint64_t mask = uint64_t{1} << (arity - 1);
    EXPECT_EQ(rel.Lookup(mask, {Value::Int(static_cast<int64_t>(arity - 1))})
                  .size(),
              1u);
    wide.back() = Value::Int(-1);
    EXPECT_FALSE(rel.Contains(wide));
  }
}

TEST(RelationArityDeathTest, ArityBeyondCapHardFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Relation rel(65);
        (void)rel;
      },
      "kMaxArity");
}

// --- Randomized churn: differential against a std::set model ---------------
// Exercises tombstone reuse, swap-and-pop index patch-up and built_upto
// edges by interleaving inserts, erases and index-building lookups.

TEST(RelationChurnTest, RandomizedInsertEraseLookupMatchesSetModel) {
  std::mt19937 rng(20260729);
  Relation rel(2);
  std::set<std::pair<int, int>> model;
  std::vector<std::pair<int, int>> live;  // model contents, for erase picks

  auto pick_value = [&](int spread) {
    return static_cast<int>(rng() % static_cast<unsigned>(spread));
  };

  for (int step = 0; step < 20000; ++step) {
    int op = static_cast<int>(rng() % 100);
    if (op < 55) {
      // Insert (duplicates on purpose: small value domain).
      int a = pick_value(24), b = pick_value(24);
      bool fresh = model.emplace(a, b).second;
      if (fresh) live.emplace_back(a, b);
      EXPECT_EQ(rel.Insert(T(a, b)), fresh) << "step " << step;
    } else if (op < 80) {
      // Erase: half the time a present row, half the time a random one.
      if (!live.empty() && op % 2 == 0) {
        size_t i = rng() % live.size();
        auto [a, b] = live[i];
        live[i] = live.back();
        live.pop_back();
        model.erase({a, b});
        EXPECT_TRUE(rel.Erase(T(a, b))) << "step " << step;
      } else {
        int a = pick_value(24), b = pick_value(24);
        bool present = model.erase({a, b}) > 0;
        if (present) {
          live.erase(std::find(live.begin(), live.end(),
                               std::make_pair(a, b)));
        }
        EXPECT_EQ(rel.Erase(T(a, b)), present) << "step " << step;
      }
    } else if (op < 90) {
      // Masked lookup (builds/extends indexes mid-churn).
      int key = pick_value(24);
      uint64_t mask = (op % 2 == 0) ? 0b01 : 0b10;
      size_t expected = 0;
      for (const auto& [a, b] : model) {
        if ((mask == 0b01 ? a : b) == key) ++expected;
      }
      auto hits = rel.Lookup(mask, {Value::Int(key)});
      EXPECT_EQ(hits.size(), expected) << "step " << step;
      for (uint32_t id : hits) {
        int a = static_cast<int>(rel.ValueAt(id, 0).AsInt());
        int b = static_cast<int>(rel.ValueAt(id, 1).AsInt());
        EXPECT_EQ((mask == 0b01 ? a : b), key);
        EXPECT_TRUE(model.count({a, b})) << "step " << step;
      }
    } else {
      // Membership probes.
      int a = pick_value(24), b = pick_value(24);
      EXPECT_EQ(rel.Contains(T(a, b)), model.count({a, b}) > 0)
          << "step " << step;
    }
    EXPECT_EQ(rel.size(), model.size());
  }
  // Full final sweep: every surviving row matches the model exactly.
  std::set<std::pair<int, int>> stored;
  for (uint32_t i : rel.Rows()) {
    stored.emplace(static_cast<int>(rel.ValueAt(i, 0).AsInt()),
                   static_cast<int>(rel.ValueAt(i, 1).AsInt()));
  }
  EXPECT_EQ(stored, model);
}

}  // namespace
}  // namespace lbtrust::datalog

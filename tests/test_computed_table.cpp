#include "core/computed_table.hpp"
#include "core/dd_node.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace qadd::dd {
namespace {

/// Key whose hash is the key itself — lets tests place entries in chosen
/// slots (and force index collisions deliberately).
struct RawKey {
  std::uint64_t value;
  friend bool operator==(const RawKey&, const RawKey&) = default;
  [[nodiscard]] std::uint64_t hash() const { return value; }
};

using SmallTable = ComputedTable<RawKey, std::uint64_t, 64>;

TEST(ComputedTable, MissesBeforeAnyInsert) {
  SmallTable table;
  std::uint64_t out = 0;
  EXPECT_FALSE(table.lookup(RawKey{1}, out));
}

TEST(ComputedTable, InsertThenLookupRoundTrips) {
  SmallTable table;
  EXPECT_FALSE(table.insert(RawKey{7}, 70));
  std::uint64_t out = 0;
  ASSERT_TRUE(table.lookup(RawKey{7}, out));
  EXPECT_EQ(out, 70U);
  EXPECT_FALSE(table.lookup(RawKey{8}, out));
}

TEST(ComputedTable, IndexCollisionEvictsPriorEntry) {
  SmallTable table;
  // Keys 3 and 3 + 64 map to the same direct-mapped slot.
  EXPECT_FALSE(table.insert(RawKey{3}, 30));
  EXPECT_EQ(SmallTable::slotOf(RawKey{3}), SmallTable::slotOf(RawKey{3 + 64}));
  EXPECT_TRUE(table.insert(RawKey{3 + 64}, 670)) << "displacing a live entry is an eviction";
  std::uint64_t out = 0;
  EXPECT_FALSE(table.lookup(RawKey{3}, out)) << "lossy mode drops the displaced entry";
  ASSERT_TRUE(table.lookup(RawKey{3 + 64}, out));
  EXPECT_EQ(out, 670U);
}

TEST(ComputedTable, OverwritingSameKeyIsNotAnEviction) {
  SmallTable table;
  EXPECT_FALSE(table.insert(RawKey{5}, 1));
  EXPECT_FALSE(table.insert(RawKey{5}, 2)) << "same key refresh is not an eviction";
  std::uint64_t out = 0;
  ASSERT_TRUE(table.lookup(RawKey{5}, out));
  EXPECT_EQ(out, 2U);
}

TEST(ComputedTable, ClearInvalidatesInConstantTimeViaEpoch) {
  SmallTable table;
  for (std::uint64_t k = 0; k < 64; ++k) {
    table.insert(RawKey{k}, k * 10);
  }
  const std::uint32_t epochBefore = table.epoch();
  table.clear();
  EXPECT_EQ(table.epoch(), epochBefore + 1) << "clear is an epoch bump, not a wipe";
  std::uint64_t out = 0;
  for (std::uint64_t k = 0; k < 64; ++k) {
    EXPECT_FALSE(table.lookup(RawKey{k}, out)) << "stale epoch entry served after clear";
  }
  // The table is fully usable after the bump.
  table.insert(RawKey{9}, 99);
  ASSERT_TRUE(table.lookup(RawKey{9}, out));
  EXPECT_EQ(out, 99U);
}

TEST(ComputedTable, StaleEntryIsOverwrittenWithoutEvictionAfterClear) {
  SmallTable table;
  table.insert(RawKey{3}, 30);
  table.clear();
  // The slot still physically holds the old entry, but it is dead — writing
  // over it must not count as evicting live work.
  EXPECT_FALSE(table.insert(RawKey{3 + 64}, 670));
}

TEST(ComputedTable, LosslessModeSpillsDisplacedEntries) {
  SmallTable table;
  table.setLossless(true);
  table.insert(RawKey{3}, 30);
  EXPECT_TRUE(table.insert(RawKey{3 + 64}, 670)) << "displacement still counts as spilled";
  // Both the displaced and the displacing entry remain retrievable.
  std::uint64_t out = 0;
  ASSERT_TRUE(table.lookup(RawKey{3}, out));
  EXPECT_EQ(out, 30U);
  ASSERT_TRUE(table.lookup(RawKey{3 + 64}, out));
  EXPECT_EQ(out, 670U);
}

TEST(ComputedTable, ClearAlsoDropsSpilledEntries) {
  SmallTable table;
  table.setLossless(true);
  table.insert(RawKey{3}, 30);
  table.insert(RawKey{3 + 64}, 670);
  table.clear();
  std::uint64_t out = 0;
  EXPECT_FALSE(table.lookup(RawKey{3}, out));
  EXPECT_FALSE(table.lookup(RawKey{3 + 64}, out));
}

TEST(ComputedTable, WorksWithWeightPairKeys) {
  // The production instantiation: weight-op memoization over interned
  // handles.
  ComputedTable<WeightPairKey, std::uint32_t, 1024> table;
  table.insert(WeightPairKey{2, 3}, 6);
  std::uint32_t out = 0;
  ASSERT_TRUE(table.lookup(WeightPairKey{2, 3}, out));
  EXPECT_EQ(out, 6U);
  EXPECT_FALSE(table.lookup(WeightPairKey{3, 2}, out))
      << "the table itself is not commutative; callers order the operands";
}

} // namespace
} // namespace qadd::dd

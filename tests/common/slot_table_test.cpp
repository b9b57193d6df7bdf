// The recycled-slot table backing the engine's attempt table. The tests pin
// the contract the engine relies on: a ref finds its record until the record
// is erased and never after, even once the slot holds another record, and
// memory follows the live records rather than how many were ever inserted.
#include "common/slot_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace woha {
namespace {

TEST(SlotTable, InsertFindTake) {
  SlotTable<std::string> table;
  EXPECT_EQ(table.size(), 0u);
  const SlotRef one = table.insert("one");
  const SlotRef two = table.insert("two");
  const SlotRef three = table.insert("three");
  EXPECT_EQ(table.size(), 3u);
  ASSERT_NE(table.find(two), nullptr);
  EXPECT_EQ(*table.find(two), "two");
  EXPECT_EQ(table.at(three), "three");

  EXPECT_EQ(table.take(two), "two");
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.find(two), nullptr);
  EXPECT_THROW((void)table.at(two), std::out_of_range);
  // Neighbours are untouched.
  EXPECT_EQ(table.at(one), "one");
  EXPECT_EQ(table.at(three), "three");
}

TEST(SlotTable, UnknownAndDefaultRefsMiss) {
  SlotTable<int> table;
  EXPECT_EQ(table.find(SlotRef{}), nullptr);
  EXPECT_EQ(table.find(SlotRef{7, 1}), nullptr);  // beyond every slot
  const SlotRef ref = table.insert(50);
  EXPECT_TRUE(ref);
  EXPECT_FALSE(SlotRef{});
  EXPECT_EQ(table.find(SlotRef{}), nullptr);  // slot 0, but no generation
  EXPECT_EQ(table.find(SlotRef{ref.slot, ref.generation + 1}), nullptr);
  EXPECT_EQ(*table.find(ref), 50);
}

TEST(SlotTable, StaleRefMissesAfterReuse) {
  // A freed slot is reused under a new generation: the ref from before the
  // reuse misses, the new one finds the new record.
  SlotTable<int> table;
  const SlotRef keep = table.insert(1);
  const SlotRef old = table.insert(2);
  EXPECT_EQ(table.take(old), 2);
  const SlotRef reused = table.insert(3);
  EXPECT_EQ(reused.slot, old.slot);
  EXPECT_NE(reused.generation, old.generation);
  EXPECT_EQ(table.find(old), nullptr);
  EXPECT_EQ(table.at(reused), 3);
  EXPECT_EQ(table.at(keep), 1);
}

TEST(SlotTable, TakeOfAStaleRefThrows) {
  SlotTable<int> table;
  const SlotRef ref = table.insert(30);
  EXPECT_EQ(table.take(ref), 30);
  EXPECT_THROW((void)table.take(ref), std::out_of_range);  // twice
  const SlotRef next = table.insert(31);
  EXPECT_THROW((void)table.take(ref), std::out_of_range);  // after the reuse
  EXPECT_EQ(table.at(next), 31);                           // table unharmed
  EXPECT_EQ(table.size(), 1u);
}

TEST(SlotTable, FullDrainKeepsEveryRefStale) {
  SlotTable<int> table;
  std::vector<SlotRef> refs;
  for (int i = 0; i < 8; ++i) refs.push_back(table.insert(i));
  for (const SlotRef ref : refs) table.take(ref);
  EXPECT_EQ(table.size(), 0u);
  for (int i = 0; i < 8; ++i) (void)table.insert(100 + i);
  for (const SlotRef ref : refs) EXPECT_EQ(table.find(ref), nullptr);
  EXPECT_EQ(table.size(), 8u);
}

TEST(SlotTable, CapacityFollowsLiveRecords) {
  // Launch/remove churn like the engine's attempts: a million inserts with
  // at most 8 records live at once, removed in a scrambled order. Every
  // live ref stays reachable, and the table never grows past twice the
  // live peak.
  SlotTable<std::uint64_t> table;
  std::vector<std::pair<SlotRef, std::uint64_t>> live;
  std::uint64_t state = 12345;
  for (std::uint64_t n = 1; n <= 1'000'000; ++n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    if (live.size() == 8 || (!live.empty() && (state >> 60) < 7)) {
      const std::size_t victim = (state >> 32) % live.size();
      ASSERT_EQ(table.take(live[victim].first), live[victim].second) << "n=" << n;
      live[victim] = live.back();
      live.pop_back();
    }
    live.emplace_back(table.insert(n), n);
    ASSERT_LE(table.capacity(), 16u) << "n=" << n;
  }
  EXPECT_EQ(table.size(), live.size());
  for (const auto& [ref, value] : live) EXPECT_EQ(table.at(ref), value);
}

}  // namespace
}  // namespace woha

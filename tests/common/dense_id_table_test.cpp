// The flat id->record arena backing the engine's attempt table. The tests
// pin the contract the unordered_map swap relies on: exact lookup semantics
// (including dead and trimmed ids), strict id monotonicity, and the
// amortized window trim staying invisible to lookups.
#include "common/dense_id_table.hpp"

#include <gtest/gtest.h>

#include <string>

namespace woha {
namespace {

TEST(DenseIdTable, EmplaceFindTake) {
  DenseIdTable<std::string> table;
  EXPECT_TRUE(table.empty());
  table.emplace(1, "one");
  table.emplace(2, "two");
  table.emplace(3, "three");
  EXPECT_EQ(table.size(), 3u);
  ASSERT_NE(table.find(2), nullptr);
  EXPECT_EQ(*table.find(2), "two");
  EXPECT_EQ(table.at(3), "three");
  EXPECT_TRUE(table.contains(1));

  EXPECT_EQ(table.take(2), "two");
  EXPECT_EQ(table.size(), 2u);
  EXPECT_FALSE(table.contains(2));
  EXPECT_EQ(table.find(2), nullptr);
  EXPECT_THROW((void)table.at(2), std::out_of_range);
  EXPECT_THROW((void)table.take(2), std::out_of_range);
  // Neighbours are untouched.
  EXPECT_EQ(table.at(1), "one");
  EXPECT_EQ(table.at(3), "three");
}

TEST(DenseIdTable, UnknownAndOutOfWindowIdsMiss) {
  DenseIdTable<int> table;
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(7), nullptr);
  table.emplace(5, 50);
  EXPECT_EQ(table.find(4), nullptr);   // below the window
  EXPECT_EQ(table.find(6), nullptr);   // above the window
  EXPECT_EQ(*table.find(5), 50);
}

TEST(DenseIdTable, IdGapsCostDeadSlotsButLookUpCorrectly) {
  DenseIdTable<int> table;
  table.emplace(1, 10);
  table.emplace(10, 100);  // gap of 8 dead slots
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(*table.find(1), 10);
  EXPECT_EQ(*table.find(10), 100);
  for (std::uint64_t id = 2; id < 10; ++id) EXPECT_FALSE(table.contains(id));
}

TEST(DenseIdTable, RejectsNonIncreasingIds) {
  DenseIdTable<int> table;
  table.emplace(3, 30);
  EXPECT_THROW(table.emplace(3, 31), std::logic_error);  // reuse
  EXPECT_THROW(table.emplace(2, 20), std::logic_error);  // backwards
  EXPECT_EQ(*table.find(3), 30);                         // table unharmed
}

TEST(DenseIdTable, FullDrainResetsTheWindow) {
  DenseIdTable<int> table;
  for (std::uint64_t id = 1; id <= 8; ++id) {
    table.emplace(id, static_cast<int>(id));
  }
  for (std::uint64_t id = 1; id <= 8; ++id) table.erase(id);
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.window(), 0u);
  // Ids keep climbing after a reset; the base offset must follow.
  table.emplace(100, 1000);
  EXPECT_EQ(*table.find(100), 1000);
  EXPECT_FALSE(table.contains(8));
}

TEST(DenseIdTable, SlidingWindowTrimKeepsLookupsIntact) {
  // FIFO churn like the engine's attempt lifecycle: insert N, erase the
  // oldest, repeat. The dead prefix must be reclaimed (bounded window) and
  // every live id must stay reachable throughout.
  DenseIdTable<std::uint64_t> table;
  constexpr std::uint64_t kTotal = 1000;
  constexpr std::uint64_t kLive = 16;
  for (std::uint64_t id = 1; id <= kTotal; ++id) {
    table.emplace(id, id * 2);
    if (id > kLive) table.erase(id - kLive);
    const std::uint64_t lo = id > kLive ? id - kLive + 1 : 1;
    for (std::uint64_t check = lo; check <= id; ++check) {
      ASSERT_TRUE(table.contains(check)) << "id=" << id << " check=" << check;
      ASSERT_EQ(table.at(check), check * 2);
    }
    ASSERT_EQ(table.size(), id - lo + 1);
    // The trim keeps the backing window near the live span, not the total
    // id space: with 16 live ids the window may lag by at most the trim
    // hysteresis (kMinTrim dead slots plus the half-vector rule).
    ASSERT_LE(table.window(), 2 * 64 + 2 * kLive) << "id=" << id;
  }
  EXPECT_EQ(table.size(), kLive);
}

}  // namespace
}  // namespace woha

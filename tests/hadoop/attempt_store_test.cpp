// The engine's attempt store: one record per tracker slot.
//
// The directed tests pin the ref contract the engine relies on: a ref finds
// its attempt until the attempt is taken and never after, even once the
// record holds another attempt, and a launch never takes more records of a
// slot type than the tracker has. The differential test runs seeded random
// sequences of launches, finishes, kills through rival links, tracker
// evictions, workflow sweeps and tracker joins against the store and
// against a small reference that states the contract directly: every live
// attempt in a std::map by attempt id, the slot bound checked by counting.
// After every step both must agree on each tracker's occupants in id order,
// on each workflow's sweep in (tracker, id) order and on the free records
// per tracker and slot type, and every ref taken so far, and the default
// ref, must miss.
#include "hadoop/attempt_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace woha::hadoop {
namespace {

Attempt make(std::uint64_t id, std::size_t tracker, SlotType type,
             std::uint32_t workflow = 0) {
  Attempt a;
  a.id = id;
  a.ref = JobRef{workflow, static_cast<std::uint32_t>(id % 5)};
  a.type = type;
  a.tracker = tracker;
  a.start_time = static_cast<SimTime>(id * 10);
  a.duration = static_cast<Duration>(id + 1);
  a.retry_level = static_cast<std::uint32_t>(id % 3);
  a.will_fail = id % 2 == 0;
  return a;
}

auto fields(const Attempt& a) {
  return std::tuple(a.id, a.ref, a.type, a.tracker, a.start_time, a.duration,
                    a.retry_level, a.will_fail, a.speculative, a.rival);
}

std::vector<std::uint64_t> ids_of(const AttemptStore& store,
                                  const std::vector<SlotRef>& refs) {
  std::vector<std::uint64_t> out;
  for (const SlotRef ref : refs) {
    const Attempt* a = store.find(ref);
    out.push_back(a ? a->id : 0);
  }
  return out;
}

/// Empty records of `type` on `tracker`: the `capacity` records of that type
/// less the store's occupants of that type.
std::uint32_t free_records(const AttemptStore& store, std::size_t tracker, SlotType type,
                           std::uint32_t capacity) {
  for (const SlotRef ref : store.on_tracker(tracker)) {
    if (store.find(ref)->type == type) --capacity;
  }
  return capacity;
}

TEST(AttemptStore, InsertFindTake) {
  AttemptStore store(2, 2, 1);
  const SlotRef one = store.insert(make(1, 0, SlotType::kMap));
  const SlotRef two = store.insert(make(2, 0, SlotType::kReduce));
  const SlotRef three = store.insert(make(3, 1, SlotType::kMap));
  ASSERT_NE(store.find(two), nullptr);
  EXPECT_EQ(fields(*store.find(two)), fields(make(2, 0, SlotType::kReduce)));
  EXPECT_EQ(store.at(three).id, 3u);

  EXPECT_EQ(fields(store.take(two)), fields(make(2, 0, SlotType::kReduce)));
  EXPECT_EQ(store.find(two), nullptr);
  EXPECT_THROW((void)store.at(two), std::out_of_range);
  // Neighbours are untouched.
  EXPECT_EQ(store.at(one).id, 1u);
  EXPECT_EQ(store.at(three).id, 3u);
  EXPECT_EQ(ids_of(store, store.on_tracker(0)), std::vector<std::uint64_t>{1});
  EXPECT_EQ(ids_of(store, store.on_tracker(1)), std::vector<std::uint64_t>{3});
}

TEST(AttemptStore, UnknownAndDefaultRefsMiss) {
  AttemptStore store(1, 1, 1);
  EXPECT_EQ(store.find(SlotRef{}), nullptr);
  EXPECT_EQ(store.find(SlotRef{7, 1}), nullptr);  // beyond every record
  const SlotRef ref = store.insert(make(50, 0, SlotType::kMap));
  EXPECT_TRUE(ref);
  EXPECT_FALSE(SlotRef{});
  EXPECT_EQ(store.find(SlotRef{}), nullptr);  // record 0, but no generation
  EXPECT_EQ(store.find(SlotRef{ref.slot, ref.generation + 1}), nullptr);
  EXPECT_EQ(store.find(SlotRef{1, ref.generation}), nullptr);  // an empty record
  EXPECT_EQ(store.at(ref).id, 50u);
}

TEST(AttemptStore, StaleRefMissesAfterReuse) {
  // A taken record is reused under a new generation: the ref from before
  // the reuse misses, the new one finds the new attempt.
  AttemptStore store(1, 2, 0);
  const SlotRef old = store.insert(make(1, 0, SlotType::kMap));
  const SlotRef keep = store.insert(make(2, 0, SlotType::kMap));
  EXPECT_EQ(store.take(old).id, 1u);
  const SlotRef reused = store.insert(make(3, 0, SlotType::kMap));
  EXPECT_EQ(reused.slot, old.slot);
  EXPECT_NE(reused.generation, old.generation);
  EXPECT_EQ(store.find(old), nullptr);
  EXPECT_EQ(store.at(reused).id, 3u);
  EXPECT_EQ(store.at(keep).id, 2u);
}

TEST(AttemptStore, TakeOfAStaleRefThrows) {
  AttemptStore store(1, 1, 0);
  const SlotRef ref = store.insert(make(30, 0, SlotType::kMap));
  EXPECT_EQ(store.take(ref).id, 30u);
  EXPECT_THROW((void)store.take(ref), std::out_of_range);  // twice
  const SlotRef next = store.insert(make(31, 0, SlotType::kMap));
  EXPECT_THROW((void)store.take(ref), std::out_of_range);  // after the reuse
  EXPECT_EQ(store.at(next).id, 31u);                       // store unharmed
  EXPECT_EQ(ids_of(store, store.on_tracker(0)), std::vector<std::uint64_t>{31});
}

TEST(AttemptStore, FullDrainKeepsEveryRefStale) {
  AttemptStore store(2, 2, 2);
  std::vector<SlotRef> refs;
  std::uint64_t id = 1;
  for (std::size_t t = 0; t < 2; ++t) {
    for (const SlotType type : {SlotType::kMap, SlotType::kReduce}) {
      for (int n = 0; n < 2; ++n) refs.push_back(store.insert(make(id++, t, type)));
    }
  }
  for (const SlotRef ref : refs) (void)store.take(ref);
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_TRUE(store.on_tracker(t).empty());
    for (const SlotType type : {SlotType::kMap, SlotType::kReduce}) {
      for (int n = 0; n < 2; ++n) (void)store.insert(make(id++, t, type));
    }
  }
  for (const SlotRef ref : refs) EXPECT_EQ(store.find(ref), nullptr);
}

TEST(AttemptStore, ALaunchTakesTheFirstEmptyRecordOfItsTypeOnItsTracker) {
  AttemptStore store(2, 2, 1);
  // Tracker 1's row is records 3..5: two map records, then one reduce.
  EXPECT_EQ(store.insert(make(1, 1, SlotType::kReduce)).slot, 5u);
  const SlotRef first = store.insert(make(2, 1, SlotType::kMap));
  EXPECT_EQ(first.slot, 3u);
  EXPECT_EQ(store.insert(make(3, 1, SlotType::kMap)).slot, 4u);
  // The tracker's map records are full; its reduce record and tracker 0
  // are not affected.
  EXPECT_THROW((void)store.insert(make(4, 1, SlotType::kMap)), std::logic_error);
  EXPECT_THROW((void)store.insert(make(4, 1, SlotType::kReduce)), std::logic_error);
  EXPECT_EQ(store.insert(make(4, 0, SlotType::kMap)).slot, 0u);
  (void)store.take(first);
  EXPECT_EQ(store.insert(make(5, 1, SlotType::kMap)).slot, 3u);
  // A tracker beyond the rows is unknown until a row is appended.
  EXPECT_THROW((void)store.insert(make(6, 2, SlotType::kMap)), std::out_of_range);
  EXPECT_THROW((void)store.on_tracker(2), std::out_of_range);
  store.add_tracker();
  EXPECT_EQ(store.insert(make(6, 2, SlotType::kMap)).slot, 6u);
  EXPECT_EQ(free_records(store, 2, SlotType::kMap, 2), 1u);
  EXPECT_EQ(free_records(store, 2, SlotType::kReduce, 1), 1u);
}

// --- the reference ------------------------------------------------------------

class Reference {
 public:
  Reference(std::size_t trackers, std::uint32_t map_slots, std::uint32_t reduce_slots)
      : trackers_(trackers), capacity_{map_slots, reduce_slots} {}

  [[nodiscard]] std::size_t trackers() const { return trackers_; }
  [[nodiscard]] const std::map<std::uint64_t, Attempt>& live() const { return live_; }
  void add_tracker() { ++trackers_; }
  void insert(const Attempt& a) { live_.emplace(a.id, a); }
  void take(std::uint64_t id) { live_.erase(id); }

  [[nodiscard]] std::uint32_t free_records(std::size_t tracker, SlotType type) const {
    std::uint32_t used = 0;
    for (const auto& [id, a] : live_) used += a.tracker == tracker && a.type == type;
    return capacity_[static_cast<std::size_t>(type)] - used;
  }
  /// Ids of the attempts on `tracker`, ascending.
  [[nodiscard]] std::vector<std::uint64_t> on_tracker(std::size_t tracker) const {
    std::vector<std::uint64_t> out;
    for (const auto& [id, a] : live_) {
      if (a.tracker == tracker) out.push_back(id);
    }
    return out;
  }
  /// Ids of the attempts of `workflow`, by (tracker, id).
  [[nodiscard]] std::vector<std::uint64_t> of_workflow(std::uint32_t workflow) const {
    std::vector<std::pair<std::size_t, std::uint64_t>> keyed;
    for (const auto& [id, a] : live_) {
      if (a.ref.workflow == workflow) keyed.emplace_back(a.tracker, id);
    }
    std::sort(keyed.begin(), keyed.end());
    std::vector<std::uint64_t> out;
    for (const auto& [tracker, id] : keyed) out.push_back(id);
    return out;
  }

 private:
  std::size_t trackers_;
  std::uint32_t capacity_[2];
  std::map<std::uint64_t, Attempt> live_;
};

// --- the driver ---------------------------------------------------------------

/// How often a run met the cases the test is meant to exercise.
struct Coverage {
  std::uint64_t launches = 0;
  std::uint64_t rejected_launches = 0;  ///< no free record of the type
  std::uint64_t reused_records = 0;     ///< launched under generation > 1
  std::uint64_t unsorted_rows = 0;      ///< record order != id order
  std::uint64_t evicted = 0;
  std::uint64_t swept = 0;
  std::uint64_t killed_through_links = 0;
  std::uint64_t stale_links = 0;  ///< rival links that missed
  std::uint64_t joins = 0;
};

void run_sequence(std::uint64_t seed, Coverage& cov) {
  Rng rng(seed);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::size_t initial_trackers = 1 + below(4);
  const auto map_slots = static_cast<std::uint32_t>(1 + below(3));
  const auto reduce_slots = static_cast<std::uint32_t>(below(3));
  const auto workflows = static_cast<std::uint32_t>(1 + below(3));
  AttemptStore store(initial_trackers, map_slots, reduce_slots);
  Reference reference(initial_trackers, map_slots, reduce_slots);
  // Live attempt id -> its ref.
  std::map<std::uint64_t, SlotRef> refs;
  // Attempt id -> the id its rival link named when it launched.
  std::map<std::uint64_t, std::uint64_t> linked;
  // Every ref taken so far.
  std::vector<SlotRef> taken;
  std::uint64_t next_id = 1;

  const auto take = [&](std::uint64_t id) {
    const SlotRef ref = refs.at(id);
    EXPECT_EQ(fields(store.take(ref)), fields(reference.live().at(id))) << "id " << id;
    reference.take(id);
    refs.erase(id);
    taken.push_back(ref);
  };
  const auto random_live = [&] {
    auto it = reference.live().begin();
    std::advance(it, static_cast<std::ptrdiff_t>(below(reference.live().size())));
    return it->first;
  };

  for (int step = 0; step < 300 && !::testing::Test::HasFailure(); ++step) {
    const std::size_t op = below(100);
    if (op < 45) {  // launch, sometimes linked to a live or taken attempt
      const std::size_t tracker = below(reference.trackers());
      const SlotType type = below(2) == 0 ? SlotType::kMap : SlotType::kReduce;
      const auto workflow = static_cast<std::uint32_t>(below(workflows));
      Attempt a = make(next_id++, tracker, type, workflow);
      a.speculative = below(4) == 0;
      if (a.speculative && !taken.empty() && below(2) == 0) {
        a.rival = taken[below(taken.size())];
      } else if (a.speculative && !refs.empty()) {
        const std::uint64_t twin = random_live();
        a.rival = refs.at(twin);
        linked[a.id] = twin;
      }
      ++cov.launches;
      if (reference.free_records(tracker, type) == 0) {
        EXPECT_THROW((void)store.insert(a), std::logic_error);
        ++cov.rejected_launches;
        continue;
      }
      const SlotRef ref = store.insert(a);
      cov.reused_records += ref.generation > 1;
      reference.insert(a);
      refs[a.id] = ref;
    } else if (op < 70 && !refs.empty()) {  // finish
      take(random_live());
    } else if (op < 82 && !refs.empty()) {  // kill through a rival link
      const Attempt& a = store.at(refs.at(random_live()));
      const Attempt* twin = store.find(a.rival);
      const auto it = linked.find(a.id);
      const bool twin_live = it != linked.end() && refs.contains(it->second);
      ASSERT_EQ(twin != nullptr, twin_live) << "seed " << seed << ", attempt " << a.id;
      if (twin == nullptr) {
        cov.stale_links += static_cast<bool>(a.rival);
        continue;
      }
      ASSERT_EQ(twin->id, it->second);
      ++cov.killed_through_links;
      take(twin->id);
    } else if (op < 90) {  // evict a tracker
      const std::size_t tracker = below(reference.trackers());
      const std::vector<std::uint64_t> want = reference.on_tracker(tracker);
      ASSERT_EQ(ids_of(store, store.on_tracker(tracker)), want) << "seed " << seed;
      for (const std::uint64_t id : want) take(id);
      cov.evicted += want.size();
    } else if (op < 97) {  // fail or shed a workflow
      const auto workflow = static_cast<std::uint32_t>(below(workflows));
      const std::vector<std::uint64_t> want = reference.of_workflow(workflow);
      ASSERT_EQ(ids_of(store, store.of_workflow(workflow)), want) << "seed " << seed;
      for (const std::uint64_t id : want) take(id);
      cov.swept += want.size();
    } else if (reference.trackers() < 8) {  // a tracker joins
      store.add_tracker();
      reference.add_tracker();
      ++cov.joins;
    }

    // The two agree after every step.
    for (std::size_t t = 0; t < reference.trackers(); ++t) {
      const std::vector<SlotRef> row = store.on_tracker(t);
      ASSERT_EQ(ids_of(store, row), reference.on_tracker(t))
          << "seed " << seed << ", step " << step << ", tracker " << t;
      const auto by_record = [](SlotRef x, SlotRef y) { return x.slot < y.slot; };
      cov.unsorted_rows += !std::is_sorted(row.begin(), row.end(), by_record);
      for (const SlotType type : {SlotType::kMap, SlotType::kReduce}) {
        const std::uint32_t capacity = type == SlotType::kMap ? map_slots : reduce_slots;
        ASSERT_EQ(free_records(store, t, type, capacity), reference.free_records(t, type))
            << "seed " << seed << ", step " << step << ", tracker " << t;
      }
    }
    for (std::uint32_t w = 0; w < workflows; ++w) {
      ASSERT_EQ(ids_of(store, store.of_workflow(w)), reference.of_workflow(w))
          << "seed " << seed << ", step " << step << ", workflow " << w;
    }
    for (const auto& [id, ref] : refs) {
      const Attempt* a = store.find(ref);
      ASSERT_NE(a, nullptr) << "seed " << seed << ", attempt " << id;
      EXPECT_EQ(fields(*a), fields(reference.live().at(id)));
    }
    ASSERT_EQ(store.find(SlotRef{}), nullptr);
    for (const SlotRef ref : taken) {
      ASSERT_EQ(store.find(ref), nullptr) << "seed " << seed << ", step " << step;
    }
    if (!taken.empty()) {
      const SlotRef stale = taken[below(taken.size())];
      EXPECT_THROW((void)store.at(stale), std::out_of_range);
      EXPECT_THROW((void)store.take(stale), std::out_of_range);
    }
  }
}

TEST(AttemptStore, MatchesReferenceOnRandomSequences) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    run_sequence(seed, cov);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
  }
  // The sequences really exercise what they are meant to.
  EXPECT_GT(cov.launches, 20'000u);
  EXPECT_GT(cov.rejected_launches, 3'000u);
  EXPECT_GT(cov.reused_records, 10'000u);
  EXPECT_GT(cov.unsorted_rows, 5'000u);
  EXPECT_GT(cov.evicted, 1'000u);
  EXPECT_GT(cov.swept, 2'000u);
  EXPECT_GT(cov.killed_through_links, 100u);
  EXPECT_GT(cov.stale_links, 400u);
  EXPECT_GT(cov.joins, 500u);
}

}  // namespace
}  // namespace woha::hadoop

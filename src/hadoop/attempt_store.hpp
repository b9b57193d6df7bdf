// The engine's running task attempts, stored in their trackers' slots.
//
// Hadoop-1 splits every TaskTracker statically into map and reduce slots,
// and an attempt (a scheduled task, a retry, a speculative backup) holds
// exactly one of them. So the store keeps one record per slot: tracker t
// owns the row of records [t * w, (t + 1) * w), w = map + reduce slots per
// tracker, map records first. A launch takes the first empty record of its
// tracker and slot type. Memory is fixed by the cluster's shape, and a
// joining tracker appends a row; nothing else ever moves a record.
//
// A SlotRef names a record and the generation it was filled under. Taking
// the attempt out bumps the generation, so from then on the ref misses, even
// once the record holds another attempt: a stale finish event or rival link
// never reaches the wrong attempt.
//
// Determinism: which record an attempt gets is a pure function of the
// insert/take sequence, and no caller observes it: on_tracker and
// of_workflow order by tracker, then by attempt id (ids are handed out in
// launch order).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "hadoop/job.hpp"

namespace woha::hadoop {

/// Names one record of an AttemptStore. Generations start at 1, so the
/// default ref names nothing.
struct SlotRef {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;

  explicit operator bool() const { return generation != 0; }
  auto operator<=>(const SlotRef&) const = default;
};

/// One running attempt (Hadoop TaskAttempt): the unit that occupies a slot,
/// can finish, fail, or be KILLED by a node fault / lost race.
struct Attempt {
  std::uint64_t id = 0;  ///< the monotonic attempt id every obs event carries
  JobRef ref;
  SlotType type = SlotType::kMap;
  std::size_t tracker = 0;
  SimTime start_time = 0;
  Duration duration = 0;  ///< scheduled runtime (truncated when will_fail)
  std::uint32_t retry_level = 0;
  bool will_fail = false;
  bool speculative = false;
  SlotRef rival;  ///< the speculation twin (default: none)
};

class AttemptStore {
 public:
  /// `trackers` rows of `map_slots` + `reduce_slots` empty records each.
  AttemptStore(std::size_t trackers, std::uint32_t map_slots, std::uint32_t reduce_slots)
      : map_slots_(map_slots), width_(map_slots + reduce_slots) {
    records_.resize(trackers * width_);
  }

  /// Append an empty row for a joining tracker. References into the store
  /// do not survive this; refs do.
  void add_tracker() { records_.resize(records_.size() + width_); }

  /// Store `a` in the first empty record of `a.type` in `a.tracker`'s row.
  /// Throws std::logic_error when there is none: the engine must never
  /// over-assign.
  SlotRef insert(const Attempt& a);

  /// The attempt `ref` names, or null once it was taken.
  [[nodiscard]] Attempt* find(SlotRef ref) {
    if (ref.slot >= records_.size()) return nullptr;
    Record& rec = records_[ref.slot];
    return rec.occupied && rec.generation == ref.generation ? &rec.attempt : nullptr;
  }
  [[nodiscard]] const Attempt* find(SlotRef ref) const {
    return const_cast<AttemptStore*>(this)->find(ref);
  }
  /// Throws std::out_of_range where find gives null.
  [[nodiscard]] Attempt& at(SlotRef ref) {
    if (Attempt* a = find(ref)) return *a;
    throw std::out_of_range("AttemptStore: stale or unknown ref");
  }
  /// Remove the attempt `ref` names and return it; `ref` is stale from then
  /// on. Throws std::out_of_range where find gives null.
  Attempt take(SlotRef ref) {
    const Attempt out = at(ref);
    records_[ref.slot].occupied = false;
    ++records_[ref.slot].generation;
    return out;
  }

  /// The attempts on `tracker`, by attempt id.
  [[nodiscard]] std::vector<SlotRef> on_tracker(std::size_t tracker) const {
    return collect(row(tracker), row(tracker) + width_, std::nullopt);
  }
  /// The attempts of `workflow`: trackers ascending, by attempt id within a
  /// tracker. Scans every row.
  [[nodiscard]] std::vector<SlotRef> of_workflow(std::uint32_t workflow) const {
    return collect(0, records_.size(), workflow);
  }

 private:
  struct Record {
    Attempt attempt;
    std::uint32_t generation = 1;
    bool occupied = false;
  };

  /// The first record of `tracker`'s row. Throws std::out_of_range for a
  /// tracker without a row.
  [[nodiscard]] std::size_t row(std::size_t tracker) const;
  /// The attempts in records [first, last) of `workflow`, or of every
  /// workflow: trackers ascending, by attempt id within a tracker.
  [[nodiscard]] std::vector<SlotRef> collect(std::size_t first, std::size_t last,
                                             std::optional<std::uint32_t> workflow) const;

  std::uint32_t map_slots_;
  std::uint32_t width_;  ///< records per row
  std::vector<Record> records_;
};

}  // namespace woha::hadoop

// Naive variant of the scheduler queue (paper Fig. 13(a), "WOHA-Naive"):
// on every AssignTask call, recompute every queued workflow's progress lag
// and re-sort the whole set before serving the head. O(n log n) per call —
// the strawman the paper shows collapsing around 10^4 workflows.
//
// It keeps no runnable state: it ignores runnable reports and probes every
// queued workflow, which also makes it the index-free reference the
// indexed queues are tested against.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/scheduler_queue.hpp"

namespace woha::core {

class NaiveQueue final : public SchedulerQueue {
 public:
  [[nodiscard]] std::string name() const override { return "Naive"; }
  void insert(std::uint32_t id, ProgressTracker tracker) override;
  void remove(std::uint32_t id) override;
  void set_runnable(std::uint32_t, SlotType, bool) override {}
  std::uint32_t assign(SimTime now, SlotType t,
                       const std::function<bool(std::uint32_t)>& can_use) override;
  void on_progress_lost(std::uint32_t id, std::uint64_t count) override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  void top(SlotType t, std::size_t k, const std::function<bool(std::uint32_t)>& runnable,
           std::vector<QueueEntry>& out) const override;

 private:
  /// The queued workflows as (-lag, id), sorted: most lagging first, ties
  /// by id. Ranks by the trackers' current (last-advanced) state.
  [[nodiscard]] std::vector<std::pair<std::int64_t, std::uint32_t>> ranked() const;

  std::vector<std::optional<ProgressTracker>> trackers_;  ///< by id; empty: not queued
  std::size_t size_ = 0;
};

}  // namespace woha::core

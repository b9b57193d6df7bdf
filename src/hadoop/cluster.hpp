// Static cluster description and per-TaskTracker runtime slot state.
//
// Hadoop-1 statically partitions each slave (TaskTracker) into map slots and
// reduce slots; the JobTracker learns about idle slots only through periodic
// heartbeats. Both facts matter for fidelity: schedulers see slot-granular,
// heartbeat-delayed availability, exactly as the paper's evaluation cluster
// did (80 servers x (2 map + 1 reduce), 3 s heartbeat).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"

namespace woha::hadoop {

struct ClusterConfig {
  std::uint32_t num_trackers = 80;
  std::uint32_t map_slots_per_tracker = 2;
  std::uint32_t reduce_slots_per_tracker = 1;
  /// TaskTracker heartbeat period (Hadoop-1 default: 3 s). First beats are
  /// staggered uniformly over one period, so the master does not see all
  /// trackers in the same tick (as in any real cluster).
  Duration heartbeat_period = seconds(3);

  [[nodiscard]] std::uint32_t total_map_slots() const {
    return num_trackers * map_slots_per_tracker;
  }
  [[nodiscard]] std::uint32_t total_reduce_slots() const {
    return num_trackers * reduce_slots_per_tracker;
  }
  [[nodiscard]] std::uint32_t total_slots() const {
    return total_map_slots() + total_reduce_slots();
  }

  /// The paper's evaluation cluster: 80 servers, 2 map + 1 reduce slot each.
  [[nodiscard]] static ClusterConfig paper_80_servers();
  /// The paper's Fig. 11 setup: 32 slaves, 2 map + 1 reduce slot each.
  [[nodiscard]] static ClusterConfig paper_32_slaves();
  /// A cluster with the given slot totals, e.g. "200m-200r" from Fig. 8:
  /// `with_totals(200, 200)`. Picks a tracker count that divides both.
  [[nodiscard]] static ClusterConfig with_totals(std::uint32_t map_slots,
                                                 std::uint32_t reduce_slots);
};

/// One TaskTracker as the master knows it: its slot occupancy and where it
/// is in its life. This record is the only copy of that state; it changes
/// through the Cluster transitions below, which keep the aggregate slot pool
/// in step with it.
class TrackerState {
 public:
  /// A crash takes an up tracker down; the master notices at lease expiry or
  /// re-registration (lost), and a restart brings it up again. A retired
  /// tracker (decommissioned or preempted) never comes back. The slots of up
  /// and down trackers are pooled; those of lost and retired ones are not.
  enum class Life : std::uint8_t { kUp, kDown, kLost, kRetired };
  /// Why a tracker is draining out. A crash keeps the drain on record; the
  /// restart or the retirement clears it.
  enum class Drain : std::uint8_t { kNone, kDecommission, kPreemption };

  TrackerState(std::uint32_t map_slots, std::uint32_t reduce_slots)
      : free_{map_slots, reduce_slots}, capacity_{map_slots, reduce_slots} {}

  [[nodiscard]] std::uint32_t free_slots(SlotType t) const {
    return free_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::uint32_t capacity(SlotType t) const {
    return capacity_[static_cast<std::size_t>(t)];
  }
  /// Every slot free: no attempt runs here.
  [[nodiscard]] bool idle() const {
    return free_[0] == capacity_[0] && free_[1] == capacity_[1];
  }

  [[nodiscard]] Life life() const { return life_; }
  [[nodiscard]] Drain drain() const { return drain_; }
  /// Crashed, whether or not the master has noticed yet.
  [[nodiscard]] bool down() const { return life_ == Life::kDown || life_ == Life::kLost; }
  /// Up and not draining: its heartbeats offer free slots to the scheduler.
  [[nodiscard]] bool takes_work() const {
    return life_ == Life::kUp && drain_ == Drain::kNone;
  }
  /// Start of the current (or last) outage.
  [[nodiscard]] SimTime crash_time() const { return crash_time_; }
  /// Bumped by every transition a pending tracker event can be overtaken
  /// by: crash, restart, drain start and retirement. Loss detection, restart,
  /// drain end and the deferred drain completion each carry the epoch they
  /// were scheduled under and stand down when it moved.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Claim one slot for a starting task. Throws if no slot is free — the
  /// engine must never over-assign.
  void occupy(SlotType t);
  /// Release one slot at task completion. Throws if already all free.
  void release(SlotType t);

 private:
  friend class Cluster;

  std::uint32_t free_[2];
  std::uint32_t capacity_[2];
  SimTime crash_time_ = 0;
  std::uint64_t epoch_ = 0;
  Life life_ = Life::kUp;
  Drain drain_ = Drain::kNone;
};

/// All trackers of a cluster plus the aggregate free-slot count of the pooled
/// ones, so "is any slot of type t free?" is a counter read.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::size_t tracker_count() const { return trackers_.size(); }
  [[nodiscard]] const TrackerState& tracker(std::size_t i) const { return trackers_[i]; }

  [[nodiscard]] std::uint32_t total_free(SlotType t) const {
    return total_free_[static_cast<std::size_t>(t)];
  }

  /// Aggregate bookkeeping wrappers — keep the totals in sync with the
  /// per-tracker state.
  void occupy(std::size_t tracker_index, SlotType t);
  void release(std::size_t tracker_index, SlotType t);

  // --- lifecycle transitions (each throws std::logic_error when the tracker
  // is not in the state it starts from) ---------------------------------------

  /// An up tracker crashes at `now`: it stops heartbeating, but its slots
  /// stay pooled and formally occupied until the master declares it lost.
  /// Returns the new epoch.
  std::uint64_t crash(std::size_t tracker_index, SimTime now);
  /// The master notices a down tracker is gone. Requires every slot released
  /// (the engine kills its attempts first) and takes its capacity out of the
  /// pool. Leaves the epoch alone: the restart scheduled with the crash must
  /// still fire.
  void declare_lost(std::size_t tracker_index);
  /// A lost tracker re-registers as a fresh worker: every slot free and
  /// pooled again, any drain it was serving forgotten.
  void restart(std::size_t tracker_index);
  /// An up tracker that is not draining starts draining out (`why` is a
  /// decommission or a preemption warning): it takes no new work but keeps
  /// running what it has. Returns the new epoch.
  std::uint64_t begin_drain(std::size_t tracker_index, TrackerState::Drain why);
  /// An up tracker leaves for good. Requires every slot released and takes
  /// its capacity out of the pool.
  void retire(std::size_t tracker_index);
  /// Register one fresh up tracker with the configured per-tracker slot
  /// shape and add its capacity to the pool. Returns its index.
  /// ClusterConfig::num_trackers keeps the *initial* count.
  std::size_t add_tracker();

 private:
  /// Move an emptied tracker from `from` to `to` and take its capacity out
  /// of the pool; `transition` names the caller in error messages.
  TrackerState& unpool(std::size_t tracker_index, TrackerState::Life from,
                       TrackerState::Life to, const char* transition);

  ClusterConfig config_;
  std::vector<TrackerState> trackers_;
  std::uint32_t total_free_[2];
};

}  // namespace woha::hadoop

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

namespace woha::obs {
class Gauge;
}  // namespace woha::obs

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

/// Runtime slot occupancy of one TaskTracker.
class TrackerState {
 public:
  TrackerState(TrackerId id, std::uint32_t map_slots, std::uint32_t reduce_slots)
      : id_(id), free_{map_slots, reduce_slots}, capacity_{map_slots, reduce_slots} {}

  [[nodiscard]] TrackerId id() const { return id_; }
  [[nodiscard]] std::uint32_t free_slots(SlotType t) const {
    return free_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::uint32_t capacity(SlotType t) const {
    return capacity_[static_cast<std::size_t>(t)];
  }

  /// False between a crash and the subsequent restart. A dead tracker sends
  /// no heartbeats, so it is never offered work; its slot bookkeeping is
  /// reconciled when the JobTracker detects the loss (lease expiry).
  [[nodiscard]] bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  /// True while the tracker drains (graceful decommission or preemption
  /// warning): it keeps heartbeating and finishing its running attempts but
  /// must never be offered new work, so it stays off both freelists.
  [[nodiscard]] bool draining() const { return draining_; }
  void set_draining(bool draining) { draining_ = draining; }
  /// Alive and not draining: eligible for freelist membership.
  [[nodiscard]] bool offerable() const { return alive_ && !draining_; }

  /// Claim one slot for a starting task. Throws if no slot is free — the
  /// engine must never over-assign.
  void occupy(SlotType t);
  /// Release one slot at task completion. Throws if already all free.
  void release(SlotType t);

 private:
  TrackerId id_;
  std::uint32_t free_[2];
  std::uint32_t capacity_[2];
  bool alive_ = true;
  bool draining_ = false;
};

/// All trackers of a cluster plus aggregate free-slot counters and, per slot
/// type, an intrusive doubly-linked freelist of live trackers with at least
/// one free slot of that type. The freelist is updated incrementally on
/// every occupy/release/crash/restart (O(1) each), so "is any slot of type t
/// free anywhere?" and "enumerate trackers with a free t-slot" never scan
/// the full tracker array — the scan was O(trackers) per query and dominated
/// large-cluster runs. List order is recency of becoming free (push-front),
/// not tracker index; consumers that need a deterministic order independent
/// of history must not rely on it.
class Cluster {
 public:
  /// Sentinel terminating freelist traversal.
  static constexpr std::size_t kNoTracker = static_cast<std::size_t>(-1);

  explicit Cluster(const ClusterConfig& config);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] std::size_t tracker_count() const { return trackers_.size(); }
  [[nodiscard]] TrackerState& tracker(std::size_t i) { return trackers_[i]; }
  [[nodiscard]] const TrackerState& tracker(std::size_t i) const { return trackers_[i]; }

  [[nodiscard]] std::uint32_t total_free(SlotType t) const {
    return total_free_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::uint32_t total_busy(SlotType t) const;

  /// Number of live trackers with >= 1 free slot of type `t`.
  [[nodiscard]] std::uint32_t free_tracker_count(SlotType t) const {
    return free_count_[static_cast<std::size_t>(t)];
  }
  /// Head of the type-`t` freelist (kNoTracker when empty).
  [[nodiscard]] std::size_t first_free(SlotType t) const {
    return head_[static_cast<std::size_t>(t)];
  }
  /// Successor of `tracker_index` on the type-`t` freelist (kNoTracker at
  /// the tail). Only meaningful while the tracker is on the list.
  [[nodiscard]] std::size_t next_free(SlotType t, std::size_t tracker_index) const {
    return next_[static_cast<std::size_t>(t)].at(tracker_index);
  }

  /// Aggregate bookkeeping wrappers — keep the totals in sync with the
  /// per-tracker state.
  void occupy(std::size_t tracker_index, SlotType t);
  void release(std::size_t tracker_index, SlotType t);

  /// Mark a tracker dead at the instant of the crash: it stops heartbeating
  /// and leaves both freelists immediately (its slots stay formally occupied
  /// until detect_tracker_loss reconciles them). The only sanctioned way to
  /// kill a tracker — writing TrackerState::set_alive directly would leave
  /// the freelists stale.
  void mark_dead(std::size_t tracker_index);

  /// Remove a lost tracker's slots from the aggregate pool once the
  /// JobTracker detects the loss. Requires the tracker marked dead and all
  /// its slots released (the engine re-queues its attempts first).
  void deactivate(std::size_t tracker_index);
  /// Return a restarted tracker to the pool with every slot free. Clears any
  /// draining flag: a re-registered node is a fresh worker.
  void activate(std::size_t tracker_index);

  /// Start draining a live tracker (graceful decommission / preemption
  /// warning): it leaves both freelists and stays off them while its running
  /// attempts finish. Idempotent; throws if the tracker is dead.
  void set_draining(std::size_t tracker_index);

  /// Register one fresh tracker with the configured per-tracker slot shape.
  /// Grows the freelist index arrays, adds the new capacity to the aggregate
  /// pool, and links the newcomer onto both freelists. Returns its index.
  /// ClusterConfig::num_trackers keeps the *initial* count.
  std::size_t add_tracker();

  /// Publish the aggregate free-slot counts into two registry gauges
  /// (updated on every occupy/release/activate/deactivate). Either pointer
  /// may be null; with both null the hook costs one branch.
  void set_slot_gauges(obs::Gauge* free_map, obs::Gauge* free_reduce);

 private:
  void update_gauges() const;
  /// Push `tracker_index` onto the front of the type-`s` freelist.
  void link(std::size_t tracker_index, std::size_t s);
  /// Remove `tracker_index` from the type-`s` freelist (must be on it).
  void unlink(std::size_t tracker_index, std::size_t s);
  [[nodiscard]] bool on_freelist(std::size_t tracker_index, std::size_t s) const {
    return prev_[s][tracker_index] != kNoTracker || head_[s] == tracker_index;
  }

  ClusterConfig config_;
  std::vector<TrackerState> trackers_;
  std::uint32_t total_free_[2];
  // Aggregate slot capacity over *all* registered trackers (initial +
  // joined); unlike config_.total_*_slots() this tracks add_tracker.
  std::uint32_t capacity_total_[2] = {0, 0};
  // Intrusive per-slot-type freelists over tracker indices.
  std::vector<std::size_t> next_[2];
  std::vector<std::size_t> prev_[2];
  std::size_t head_[2] = {kNoTracker, kNoTracker};
  std::uint32_t free_count_[2] = {0, 0};
  obs::Gauge* gauges_[2] = {nullptr, nullptr};
};

}  // namespace woha::hadoop

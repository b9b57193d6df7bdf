#include "hadoop/cluster.hpp"

#include <numeric>
#include <string>

namespace woha::hadoop {

ClusterConfig ClusterConfig::paper_80_servers() {
  ClusterConfig c;
  c.num_trackers = 80;
  c.map_slots_per_tracker = 2;
  c.reduce_slots_per_tracker = 1;
  return c;
}

ClusterConfig ClusterConfig::paper_32_slaves() {
  ClusterConfig c;
  c.num_trackers = 32;
  c.map_slots_per_tracker = 2;
  c.reduce_slots_per_tracker = 1;
  return c;
}

ClusterConfig ClusterConfig::with_totals(std::uint32_t map_slots,
                                         std::uint32_t reduce_slots) {
  if (map_slots == 0 || reduce_slots == 0) {
    throw std::invalid_argument("with_totals: slot counts must be positive");
  }
  ClusterConfig c;
  // Find the largest tracker count <= 128 dividing both, so per-tracker slot
  // counts stay realistic (small integers).
  const std::uint32_t g = std::gcd(map_slots, reduce_slots);
  std::uint32_t trackers = g;
  while (trackers > 128) trackers /= 2;
  // Fall back to 1 tracker when gcd is odd and too large to halve evenly.
  while (trackers > 1 && (map_slots % trackers || reduce_slots % trackers)) {
    --trackers;
  }
  c.num_trackers = trackers;
  c.map_slots_per_tracker = map_slots / trackers;
  c.reduce_slots_per_tracker = reduce_slots / trackers;
  // Coprime totals (e.g. 200 map + 1 reduce) collapse to a single tracker
  // holding every slot, which silently models a cluster with no parallelism
  // at all. Reject such shapes instead of producing nonsense: no real
  // TaskTracker carries more than a handful of slots per type.
  constexpr std::uint32_t kMaxSlotsPerTrackerType = 32;
  if (c.map_slots_per_tracker > kMaxSlotsPerTrackerType ||
      c.reduce_slots_per_tracker > kMaxSlotsPerTrackerType) {
    throw std::invalid_argument(
        "with_totals: no tracker count <= 128 divides both slot totals into "
        "<= 32 slots per tracker per type (totals " + std::to_string(map_slots) +
        "m/" + std::to_string(reduce_slots) +
        "r are near-coprime); pick totals with a common factor or configure "
        "the cluster explicitly");
  }
  return c;
}

void TrackerState::occupy(SlotType t) {
  auto& free = free_[static_cast<std::size_t>(t)];
  if (free == 0) {
    throw std::logic_error("TrackerState::occupy: no free slot");
  }
  --free;
}

void TrackerState::release(SlotType t) {
  auto& free = free_[static_cast<std::size_t>(t)];
  if (free >= capacity_[static_cast<std::size_t>(t)]) {
    throw std::logic_error("TrackerState::release: all slots already free");
  }
  ++free;
}

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  if (config.num_trackers == 0) {
    throw std::invalid_argument("Cluster: num_trackers must be positive");
  }
  trackers_.assign(config.num_trackers,
                   TrackerState(config.map_slots_per_tracker,
                                config.reduce_slots_per_tracker));
  total_free_[0] = config.total_map_slots();
  total_free_[1] = config.total_reduce_slots();
}

void Cluster::occupy(std::size_t tracker_index, SlotType t) {
  trackers_.at(tracker_index).occupy(t);
  --total_free_[static_cast<std::size_t>(t)];
}

void Cluster::release(std::size_t tracker_index, SlotType t) {
  trackers_.at(tracker_index).release(t);
  ++total_free_[static_cast<std::size_t>(t)];
}

std::uint64_t Cluster::crash(std::size_t tracker_index, SimTime now) {
  TrackerState& tracker = trackers_.at(tracker_index);
  if (tracker.life_ != TrackerState::Life::kUp) {
    throw std::logic_error("Cluster::crash: tracker is not up");
  }
  tracker.life_ = TrackerState::Life::kDown;
  tracker.crash_time_ = now;
  return ++tracker.epoch_;
}

TrackerState& Cluster::unpool(std::size_t tracker_index, TrackerState::Life from,
                              TrackerState::Life to, const char* transition) {
  TrackerState& tracker = trackers_.at(tracker_index);
  if (tracker.life_ != from) {
    throw std::logic_error(std::string("Cluster::") + transition +
                           ": tracker is not in the state it leaves");
  }
  if (tracker.free_[0] != tracker.capacity_[0] ||
      tracker.free_[1] != tracker.capacity_[1]) {
    throw std::logic_error(std::string("Cluster::") + transition +
                           ": tracker has occupied slots");
  }
  total_free_[0] -= tracker.capacity_[0];
  total_free_[1] -= tracker.capacity_[1];
  tracker.life_ = to;
  return tracker;
}

void Cluster::declare_lost(std::size_t tracker_index) {
  unpool(tracker_index, TrackerState::Life::kDown, TrackerState::Life::kLost,
         "declare_lost");
}

void Cluster::restart(std::size_t tracker_index) {
  TrackerState& tracker = trackers_.at(tracker_index);
  if (tracker.life_ != TrackerState::Life::kLost) {
    throw std::logic_error("Cluster::restart: tracker is not lost");
  }
  tracker.life_ = TrackerState::Life::kUp;
  tracker.drain_ = TrackerState::Drain::kNone;
  ++tracker.epoch_;
  total_free_[0] += tracker.capacity_[0];
  total_free_[1] += tracker.capacity_[1];
}

std::uint64_t Cluster::begin_drain(std::size_t tracker_index, TrackerState::Drain why) {
  TrackerState& tracker = trackers_.at(tracker_index);
  if (!tracker.takes_work() || why == TrackerState::Drain::kNone) {
    throw std::logic_error("Cluster::begin_drain: tracker is not up and serving");
  }
  tracker.drain_ = why;
  return ++tracker.epoch_;
}

void Cluster::retire(std::size_t tracker_index) {
  TrackerState& tracker = unpool(tracker_index, TrackerState::Life::kUp,
                                 TrackerState::Life::kRetired, "retire");
  tracker.drain_ = TrackerState::Drain::kNone;
  ++tracker.epoch_;
}

std::size_t Cluster::add_tracker() {
  trackers_.emplace_back(config_.map_slots_per_tracker,
                         config_.reduce_slots_per_tracker);
  total_free_[0] += config_.map_slots_per_tracker;
  total_free_[1] += config_.reduce_slots_per_tracker;
  return trackers_.size() - 1;
}

}  // namespace woha::hadoop

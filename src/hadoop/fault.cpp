#include "hadoop/fault.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <string>

namespace woha::hadoop {

void FaultConfig::validate(std::size_t tracker_count) const {
  // Range checks accept only values in range, so NaN fails them.
  if (!(std::isfinite(tracker_mtbf) && tracker_mtbf >= 0.0)) {
    throw std::invalid_argument("FaultConfig: tracker_mtbf must be finite and >= 0");
  }
  if (tracker_restart_delay < 0) {
    throw std::invalid_argument("FaultConfig: negative tracker_restart_delay");
  }
  if (expiry_interval <= 0) {
    throw std::invalid_argument("FaultConfig: expiry_interval must be positive");
  }
  if (!(std::isfinite(speculative_slowness) && speculative_slowness > 1.0)) {
    throw std::invalid_argument(
        "FaultConfig: speculative_slowness must be finite and > 1");
  }
  if (speculative_min_runtime < 0) {
    throw std::invalid_argument("FaultConfig: negative speculative_min_runtime");
  }

  // Explicit schedule: indices in range, outages well-formed and
  // non-overlapping per tracker (a node cannot crash while already down).
  std::map<std::uint32_t, std::vector<const TrackerFaultEvent*>> per_tracker;
  for (const TrackerFaultEvent& e : events) {
    if (e.tracker >= tracker_count) {
      throw std::invalid_argument("FaultConfig: event tracker index " +
                                  std::to_string(e.tracker) + " out of range");
    }
    if (e.crash_time < 0) {
      throw std::invalid_argument("FaultConfig: negative crash_time");
    }
    if (e.restart_time <= e.crash_time) {
      // Includes restart_time == crash_time: a zero-length outage would be
      // invisible to the master and can only be a schedule bug.
      throw std::invalid_argument("FaultConfig: restart_time must be after crash_time");
    }
    per_tracker[e.tracker].push_back(&e);
  }
  for (auto& [tracker, list] : per_tracker) {
    std::sort(list.begin(), list.end(),
              [](const TrackerFaultEvent* a, const TrackerFaultEvent* b) {
                return a->crash_time < b->crash_time;
              });
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i - 1]->restart_time > list[i]->crash_time) {
        throw std::invalid_argument(
            "FaultConfig: overlapping outages for tracker " + std::to_string(tracker));
      }
    }
  }
}

void ElasticityConfig::validate(std::size_t tracker_count) const {
  for (const TrackerDecommissionEvent& d : decommissions) {
    if (d.tracker >= tracker_count) {
      throw std::invalid_argument("ElasticityConfig: decommission tracker index " +
                                  std::to_string(d.tracker) + " out of range");
    }
    if (d.start_time < 0) {
      throw std::invalid_argument("ElasticityConfig: negative decommission start");
    }
    if (d.drain_lease <= 0) {
      throw std::invalid_argument(
          "ElasticityConfig: drain_lease must be positive");
    }
  }
  for (const PreemptionWave& w : preemption_waves) {
    if (w.time < 0) {
      throw std::invalid_argument("ElasticityConfig: negative preemption time");
    }
    if (w.count == 0) {
      throw std::invalid_argument(
          "ElasticityConfig: preemption wave count must be >= 1");
    }
    if (w.warning < 0) {
      throw std::invalid_argument("ElasticityConfig: negative preemption warning");
    }
  }
  for (const TrackerJoinEvent& j : joins) {
    if (j.time < 0) {
      throw std::invalid_argument("ElasticityConfig: negative join time");
    }
    if (j.count == 0) {
      throw std::invalid_argument("ElasticityConfig: join count must be >= 1");
    }
  }
  if (autoscaler.enabled) {
    if (autoscaler.check_period <= 0) {
      throw std::invalid_argument(
          "ElasticityConfig: autoscaler check_period must be positive");
    }
    if (autoscaler.step == 0) {
      throw std::invalid_argument("ElasticityConfig: autoscaler step must be >= 1");
    }
    if (autoscaler.min_trackers == 0) {
      throw std::invalid_argument(
          "ElasticityConfig: autoscaler min_trackers must be >= 1");
    }
    if (autoscaler.scale_in_pending > autoscaler.scale_out_pending) {
      throw std::invalid_argument(
          "ElasticityConfig: scale_in_pending > scale_out_pending would flap");
    }
    if (autoscaler.drain_lease <= 0) {
      throw std::invalid_argument(
          "ElasticityConfig: autoscaler drain_lease must be positive");
    }
  }
}

}  // namespace woha::hadoop

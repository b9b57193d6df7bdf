// Slot-allocation timelines (paper Figs. 14-19).
//
// Records every task start/finish and reconstructs, per workflow, the number
// of occupied map and reduce slots as a step function of time. `sample()`
// grids it for plotting/printing; `to_csv()` emits the exact series the
// paper's figures draw.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "obs/event.hpp"

namespace woha::metrics {

class TimelineRecorder {
 public:
  /// Record an obs::TaskStarted or obs::TaskEnded; every other event is
  /// ignored. Subscribe it to an engine's bus before run():
  ///   engine.events().subscribe([&](const obs::Event& e) { rec.record(e); });
  void record(const obs::Event& event);

  [[nodiscard]] std::size_t event_count() const { return events_.size(); }
  [[nodiscard]] std::uint32_t workflow_count() const { return workflow_count_; }

  struct Sample {
    SimTime time;
    /// counts[w] = slots of `slot` type occupied by workflow w at `time`.
    std::vector<std::uint32_t> counts;
  };

  /// Step-function samples at multiples of `period` from 0 to the last
  /// event, for the given slot type.
  [[nodiscard]] std::vector<Sample> sample(SlotType slot, Duration period) const;

  /// Peak per-workflow occupancy for the given slot type.
  [[nodiscard]] std::vector<std::uint32_t> peak_occupancy(SlotType slot) const;

  /// Busy slot-milliseconds per workflow for the given slot type (area
  /// under the occupancy curve).
  [[nodiscard]] std::vector<double> busy_slot_ms(SlotType slot) const;

  /// CSV: time,<wf-0>,<wf-1>,... one table per call (one slot type).
  [[nodiscard]] std::string to_csv(SlotType slot, Duration period) const;

 private:
  /// One slot taken (started) or given back by an attempt of `workflow`.
  struct Change {
    SimTime time;
    std::uint32_t workflow;
    SlotType slot;
    bool started;
  };

  std::vector<Change> events_;
  std::uint32_t workflow_count_ = 0;
};

}  // namespace woha::metrics

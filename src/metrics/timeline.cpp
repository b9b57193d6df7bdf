#include "metrics/timeline.hpp"

#include <algorithm>
#include <stdexcept>
#include <variant>

namespace woha::metrics {

void TimelineRecorder::record(const obs::Event& event) {
  if (const auto* s = std::get_if<obs::TaskStarted>(&event.payload)) {
    events_.push_back({event.time, s->workflow, s->slot, true});
  } else if (const auto* e = std::get_if<obs::TaskEnded>(&event.payload)) {
    events_.push_back({event.time, e->workflow, e->slot, false});
  } else {
    return;
  }
  workflow_count_ = std::max(workflow_count_, events_.back().workflow + 1);
}

std::vector<TimelineRecorder::Sample> TimelineRecorder::sample(SlotType slot,
                                                               Duration period) const {
  if (period <= 0) throw std::invalid_argument("TimelineRecorder: period <= 0");
  std::vector<Sample> out;
  std::vector<std::uint32_t> current(workflow_count_, 0);
  SimTime last = 0;
  for (const auto& e : events_) last = std::max(last, e.time);

  std::size_t i = 0;
  // Events are recorded in simulation order (non-decreasing time).
  for (SimTime t = 0; t <= last + period; t += period) {
    while (i < events_.size() && events_[i].time <= t) {
      const auto& e = events_[i];
      if (e.slot == slot) {
        auto& c = current[e.workflow];
        if (e.started) {
          ++c;
        } else {
          if (c == 0) throw std::logic_error("TimelineRecorder: negative occupancy");
          --c;
        }
      }
      ++i;
    }
    out.push_back(Sample{t, current});
  }
  return out;
}

std::vector<std::uint32_t> TimelineRecorder::peak_occupancy(SlotType slot) const {
  std::vector<std::uint32_t> current(workflow_count_, 0);
  std::vector<std::uint32_t> peak(workflow_count_, 0);
  for (const auto& e : events_) {
    if (e.slot != slot) continue;
    auto& c = current[e.workflow];
    if (e.started) {
      ++c;
      peak[e.workflow] = std::max(peak[e.workflow], c);
    } else {
      if (c == 0) throw std::logic_error("TimelineRecorder: negative occupancy");
      --c;
    }
  }
  return peak;
}

std::vector<double> TimelineRecorder::busy_slot_ms(SlotType slot) const {
  std::vector<double> area(workflow_count_, 0.0);
  std::vector<std::uint32_t> current(workflow_count_, 0);
  std::vector<SimTime> last_change(workflow_count_, 0);
  for (const auto& e : events_) {
    if (e.slot != slot) continue;
    const std::uint32_t w = e.workflow;
    area[w] += static_cast<double>(current[w]) *
               static_cast<double>(e.time - last_change[w]);
    last_change[w] = e.time;
    if (e.started) {
      ++current[w];
    } else {
      if (current[w] == 0) throw std::logic_error("TimelineRecorder: negative occupancy");
      --current[w];
    }
  }
  return area;
}

std::string TimelineRecorder::to_csv(SlotType slot, Duration period) const {
  std::string out = "time_s";
  for (std::uint32_t w = 0; w < workflow_count_; ++w) {
    out += ",wf" + std::to_string(w);
  }
  out += "\n";
  for (const Sample& s : sample(slot, period)) {
    out += std::to_string(s.time / 1000);
    for (const std::uint32_t c : s.counts) out.append(",").append(std::to_string(c));
    out += "\n";
  }
  return out;
}

}  // namespace woha::metrics

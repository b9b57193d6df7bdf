// One long-lived SchedulerDecision event, reused across publishes.
//
// Every scheduler, and the engine for the offers it answers itself, traces
// each consult as a SchedulerDecision. The publisher owns the event and
// publishes it by reference: the scheduler-name string is built once and the
// ranking vector keeps its buffer, so a traced run allocates nothing per
// decision. Handlers must not retain the event past their return. The
// caller fills only what it alone knows, its ranking.
#pragma once

#include <cstddef>
#include <cstdint>
#include <variant>

#include "obs/event.hpp"
#include "obs/event_bus.hpp"

namespace woha::obs {

class DecisionPublisher {
 public:
  /// The decision for an offer of `slot` from `tracker` at `now`:
  /// unassigned, with an empty ranking. `name()` fills
  /// SchedulerDecision::scheduler on the first call only.
  template <class Name>
  SchedulerDecision& begin(SimTime now, SlotType slot, std::size_t tracker,
                           const Name& name) {
    if (!std::holds_alternative<SchedulerDecision>(event_.payload)) {
      event_.payload.emplace<SchedulerDecision>().scheduler = name();
    }
    auto& d = std::get<SchedulerDecision>(event_.payload);
    event_.time = now;
    d.slot = slot;
    d.tracker = tracker;
    d.assigned = false;
    d.workflow = 0;
    d.job = SchedulerDecision::kNoJob;
    d.ranking.clear();
    return d;
  }

  /// Fan the decision begun last out to `bus`'s subscribers.
  void publish(EventBus& bus) const { bus.publish(event_); }

 private:
  Event event_;
};

}  // namespace woha::obs

// The event bus: a deterministic publish/subscribe fan-out for obs::Event.
//
// Design constraints (tested in tests/integration/observability_*):
//  * A bus with no subscribers must add no observable cost: publishers guard
//    event construction behind active(), which is a single empty() check.
//  * An active bus must not perturb the simulation: handlers run
//    synchronously, in subscription order, and the bus never touches
//    simulated time or any RNG stream. Publishing is append-only fan-out.
//
// "Lock-free in spirit": the simulator is single-threaded by construction,
// so the bus carries no locks at all — determinism comes from the fixed
// subscription order, not from synchronization.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "analysis/race_detector.hpp"
#include "obs/event.hpp"

namespace woha::obs {

class EventBus {
 public:
  using Handler = std::function<void(const Event&)>;
  using SubscriptionId = std::uint32_t;

  /// Register a handler; it sees every subsequent publish. Returns an id
  /// for unsubscribe(). Handlers fire in subscription order.
  SubscriptionId subscribe(Handler handler) {
    analysis::touch_write("event_bus", analysis_id_, "EventBus::subscribe");
    const SubscriptionId id = next_id_++;
    handlers_.emplace_back(id, std::move(handler));
    return id;
  }

  /// Remove a handler. No-op if the id is unknown.
  void unsubscribe(SubscriptionId id) {
    analysis::touch_write("event_bus", analysis_id_, "EventBus::unsubscribe");
    std::erase_if(handlers_, [id](const auto& e) { return e.first == id; });
  }

  /// True when at least one subscriber is attached. Publishers check this
  /// before constructing an event, so a disabled bus costs one branch.
  [[nodiscard]] bool active() const { return !handlers_.empty(); }

  [[nodiscard]] std::size_t subscriber_count() const { return handlers_.size(); }
  [[nodiscard]] std::uint64_t published() const { return published_; }

  /// Fan an event out to every subscriber, in subscription order. The
  /// event is passed by reference, never copied, so a publisher may keep a
  /// long-lived Event and reuse its buffers (ranking vectors, strings)
  /// across publishes; handlers must not retain it past their return.
  void publish(const Event& event) {
    if (handlers_.empty()) return;  // inactive bus stays a single branch
    analysis::touch_write("event_bus", analysis_id_, "EventBus::publish");
    ++published_;
    for (const auto& [id, handler] : handlers_) handler(event);
  }

  /// Convenience: stamp `payload` with `time` and publish.
  template <class P>
  void publish(SimTime time, P payload) {
    publish(Event{time, Payload(std::move(payload))});
  }

 private:
  std::vector<std::pair<SubscriptionId, Handler>> handlers_;
  SubscriptionId next_id_ = 1;
  std::uint64_t published_ = 0;
  /// Race-detector touchpoint: a bus belongs to exactly one engine, and an
  /// engine to one grid worker — annotated publishes from two unordered
  /// threads mean a shared bus, the exact bug the obs thread-confinement
  /// rule forbids.
  std::uint64_t analysis_id_ = analysis::new_instance_id();
};

}  // namespace woha::obs

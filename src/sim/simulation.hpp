// Discrete-event simulation core.
//
// The entire Hadoop cluster model runs on this core: heartbeats, task
// completions, workflow submissions, job activations and the fault and
// elasticity timers are all events. Determinism is a hard requirement
// (EXPERIMENTS.md numbers must be reproducible), so every event takes a
// sequence number when it is scheduled and events fire in (time, seq)
// order: two events scheduled for the same tick fire in scheduling order,
// never in container order.
//
// Pending events wait in one of two places:
//  * The beat stream. Each tracker has exactly one pending beat and no beat
//    is ever cancelled. A fired beat re-arms one period later under a seq
//    taken after its handler returns; since every pending beat lies at most
//    one period ahead, appending keeps a plain FIFO of (time, seq, tracker)
//    sorted. The heartbeat storm, the great majority of all events, costs a
//    FIFO pop and push per beat and one 24-byte entry per tracker.
//  * The calendar, for every other event: a plain record (time, seq, kind,
//    two ids) that the owner dispatches by kind. A ring of kWindow
//    one-millisecond buckets covers the window [base, base + kWindow); each
//    bucket is a FIFO vector (push order == seq order, so same-tick FIFO
//    costs nothing), and a bitmap over buckets lets the scan skip empty
//    ticks a word at a time. Events beyond the window wait in a
//    (time, seq)-ordered binary heap and move into the ring when the window
//    jumps, which happens only when the ring is empty and the heap's head
//    fires.
//
// step() fires whichever head is smaller by (time, seq). A beat can fire
// before the calendar's head and schedule ahead of it, so looking at that
// head never jumps the window, and a push before the scan cursor pulls the
// cursor back.
//
// now() is the time of the last event that fired. A horizon stop leaves it
// there rather than at the horizon; the engine's summary reads it as the end
// of the run.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/types.hpp"

namespace woha::sim {

/// One scheduled event: a plain record its owner dispatches by `kind`.
struct Event {
  SimTime time = 0;
  std::uint64_t seq = 0;
  std::uint32_t kind = 0;  ///< the owner's event type
  std::uint32_t a = 0;     ///< first id; what it names depends on kind
  std::uint64_t b = 0;     ///< second id
};

class Simulation {
 public:
  /// `beat_period` (> 0) spaces the beats of every tracker.
  explicit Simulation(Duration beat_period);
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Time of the last event that fired; 0 before the first.
  [[nodiscard]] SimTime now() const { return now_; }
  /// Events fired so far, beats included; dropped events are not counted.
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Schedule an event at absolute time `when` (>= now()).
  void schedule_at(SimTime when, std::uint32_t kind, std::uint32_t a = 0,
                   std::uint64_t b = 0);
  /// Schedule an event `delay` (>= 0) ms from now.
  void schedule_after(Duration delay, std::uint32_t kind, std::uint32_t a = 0,
                      std::uint64_t b = 0);
  /// Start `tracker`'s beats: the first at `first`, then one every beat
  /// period for good. `first` must lie in [now(), now() + period] and not
  /// before the last pending beat.
  void add_beat(std::uint32_t tracker, SimTime first);

  /// Fire the next beat or event due at or before `until` through
  /// `dispatch`, and return whether one fired. A beat calls
  /// `dispatch.heartbeat(tracker)`. An event calls `dispatch.live(event)` first:
  /// an event it rejects is dropped without counting or moving now(), and
  /// the step goes on to the next one. A live event calls
  /// `dispatch.fire(event)`.
  template <typename Dispatch>
  bool step(SimTime until, Dispatch& dispatch);

  /// Calendar-ring width in ms (also the bucket count: 1 ms per bucket).
  /// Exposed so tests can construct events on both sides of the window.
  static constexpr SimTime kWindow = 65536;

 private:
  struct Beat {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t tracker = 0;
  };

  /// One calendar tick's events in FIFO order. `head` indexes the next
  /// event to pop; the vector is recycled (capacity kept) once drained.
  struct Bucket {
    std::vector<Event> items;
    std::size_t head = 0;
  };

  static constexpr std::size_t kBuckets = static_cast<std::size_t>(kWindow);
  static constexpr std::size_t kWords = kBuckets / 64;

  [[nodiscard]] static std::size_t bucket_of(SimTime t) {
    return static_cast<std::size_t>(t) & (kBuckets - 1);
  }
  /// The calendar's next event, or null. Positions the sweep cursor but
  /// never jumps the window.
  [[nodiscard]] const Event* peek_event();
  /// Take the calendar's next event, jumping the window to it when the ring
  /// is empty. Called only when that event fires or is dropped.
  Event pop_event();
  /// Whether the beat stream's head comes before `head` (null: no event).
  [[nodiscard]] bool beat_first(const Event* head) const;
  /// Re-arm a fired beat one period later under a fresh seq.
  void rearm(const Beat& beat);
  void push(const Event& ev);
  void ring_push(const Event& ev);
  /// Move every overflow event inside [base_, base_ + kWindow) into the
  /// ring, in (time, seq) order (preserves per-tick FIFO).
  void drain_overflow();
  /// First non-empty bucket at or after sweep_ (circular; caller must
  /// guarantee ring_count_ > 0). Advances sweep_ to the found tick.
  [[nodiscard]] std::size_t find_next_bucket();
  // Binary min-heap over (time, seq).
  void heap_push(const Event& ev);
  Event heap_pop();

  std::deque<Beat> beats_;  // one per tracker, (time, seq) order
  Duration beat_period_;

  std::vector<Bucket> ring_;         // kBuckets entries, tick = time % kBuckets
  std::vector<std::uint64_t> bits_;  // kWords words: bucket non-empty bits
  std::vector<Event> overflow_;      // events at time >= base_ + kWindow
  std::size_t ring_count_ = 0;       // events currently in the ring
  std::size_t size_ = 0;             // calendar events (ring + overflow)
  SimTime base_ = 0;                 // window start (<= every calendar time)
  SimTime sweep_ = 0;                // scan cursor, base_ <= sweep_ <= ring head

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

template <typename Dispatch>
bool Simulation::step(SimTime until, Dispatch& dispatch) {
  while (true) {
    const Event* head = peek_event();
    if (beat_first(head)) {
      const Beat beat = beats_.front();
      if (beat.time > until) return false;
      beats_.pop_front();
      now_ = beat.time;
      ++fired_;
      dispatch.heartbeat(beat.tracker);
      rearm(beat);
      return true;
    }
    if (head == nullptr || head->time > until) return false;
    const Event ev = pop_event();
    if (!dispatch.live(ev)) continue;
    now_ = ev.time;
    ++fired_;
    dispatch.fire(ev);
    return true;
  }
}

}  // namespace woha::sim

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
//    two ids) that the owner dispatches by kind. Time is cut into buckets of
//    kBucketWidth ms, kept in two levels and a far heap. The near heap, a
//    (time, seq) binary heap, holds every event of the current bucket and
//    any earlier one. A ring of kBuckets unsorted vectors holds the next
//    kBuckets buckets (kRingSpan ms), with a bitmap over them so that a scan
//    skips empty buckets a word at a time. The far heap, (time, seq) again,
//    holds everything beyond the ring.
//
// When the near heap runs empty, the next non-empty bucket becomes current:
// its vector moves into the near heap and is heapified, and only then do the
// far events the ring now reaches move into it (an event one ring span past
// the new bucket would otherwise land in the vector being moved). Memory so
// follows the pending events, not every bucket's high-water mark, and
// same-tick FIFO order comes from the one (time, seq) comparison.
//
// step() fires whichever head is smaller by (time, seq). A beat can fire
// before the calendar's head and schedule ahead of it; such an event's
// bucket is at or before the current one, so it joins the near heap.
//
// now() is the time of the last event that fired. A horizon stop leaves it
// there rather than at the horizon; the engine's summary reads it as the end
// of the run.
#pragma once

#include <algorithm>
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

  /// Calendar geometry: the width of one bucket and the reach of the ring
  /// (kBuckets buckets) in ms. Exposed so tests can place events on both
  /// sides of a bucket edge and of the ring's reach.
  static constexpr SimTime kBucketWidth = 1024;
  static constexpr SimTime kRingSpan = 4096 * kBucketWidth;

 private:
  struct Beat {
    SimTime time = 0;
    std::uint64_t seq = 0;
    std::uint32_t tracker = 0;
  };

  static constexpr std::uint64_t kBuckets = kRingSpan / kBucketWidth;
  static constexpr std::size_t kWords = kBuckets / 64;

  [[nodiscard]] static std::uint64_t bucket_of(SimTime t) {
    return static_cast<std::uint64_t>(t) / kBucketWidth;
  }
  /// (time, seq) order reversed: the std heap algorithms then keep the
  /// earliest event at the front.
  [[nodiscard]] static bool later(const Event& x, const Event& y) {
    return x.time != y.time ? x.time > y.time : x.seq > y.seq;
  }
  /// The calendar's next event, or null.
  [[nodiscard]] const Event* peek_event() {
    if (near_.empty() && !advance()) return nullptr;
    return &near_.front();
  }
  /// Take the calendar's next event; peek_event() must have found one.
  Event pop_event() {
    std::pop_heap(near_.begin(), near_.end(), later);
    const Event ev = near_.back();
    near_.pop_back();
    return ev;
  }
  /// Whether the beat stream's head comes before `head` (null: no event).
  [[nodiscard]] bool beat_first(const Event* head) const;
  /// Re-arm a fired beat one period later under a fresh seq.
  void rearm(const Beat& beat);
  /// Put `ev` in the level that holds its bucket.
  void place(const Event& ev);
  /// Refill the empty near heap from the next non-empty bucket, then move
  /// the far events the ring now reaches into it. False: calendar empty.
  bool advance();

  std::deque<Beat> beats_;  // one per tracker, (time, seq) order
  Duration beat_period_;

  // Bucket b > cur_ waits in ring_[b % kBuckets] while b <= cur_ + kBuckets.
  std::vector<Event> near_;               // heap: buckets <= cur_
  std::vector<std::vector<Event>> ring_;  // kBuckets unsorted buckets
  std::vector<std::uint64_t> bits_;       // kWords words: ring bucket non-empty
  std::vector<Event> far_;                // heap: buckets > cur_ + kBuckets
  std::size_t ring_count_ = 0;            // events in the ring
  std::uint64_t cur_ = 0;                 // the current bucket

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

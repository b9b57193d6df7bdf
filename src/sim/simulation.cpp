#include "sim/simulation.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace woha::sim {

Simulation::Simulation(Duration beat_period)
    : beat_period_(beat_period), ring_(kBuckets), bits_(kWords, 0) {
  if (beat_period <= 0) {
    throw std::invalid_argument("Simulation: beat period must be positive");
  }
}

void Simulation::schedule_at(SimTime when, std::uint32_t kind, std::uint32_t a,
                             std::uint64_t b) {
  if (when < now_) {
    throw std::invalid_argument("Simulation::schedule_at: time in the past");
  }
  push(Event{when, next_seq_++, kind, a, b});
}

void Simulation::schedule_after(Duration delay, std::uint32_t kind, std::uint32_t a,
                                std::uint64_t b) {
  if (delay < 0) {
    throw std::invalid_argument("Simulation::schedule_after: negative delay");
  }
  schedule_at(now_ + delay, kind, a, b);
}

void Simulation::add_beat(std::uint32_t tracker, SimTime first) {
  if (first < now_ || first > now_ + beat_period_ ||
      (!beats_.empty() && first < beats_.back().time)) {
    throw std::invalid_argument("Simulation::add_beat: first beat out of order");
  }
  beats_.push_back(Beat{first, next_seq_++, tracker});
}

bool Simulation::beat_first(const Event* head) const {
  if (beats_.empty()) return false;
  if (head == nullptr) return true;
  const Beat& beat = beats_.front();
  return beat.time < head->time || (beat.time == head->time && beat.seq < head->seq);
}

void Simulation::rearm(const Beat& beat) {
  // The seq is taken after the handler returned, so what the handler
  // scheduled for the next beat's tick fires first. Every pending beat lies
  // at most one period ahead, so the append keeps the FIFO sorted.
  const Beat next{beat.time + beat_period_, next_seq_++, beat.tracker};
  assert(beats_.empty() || beats_.back().time <= next.time);
  beats_.push_back(next);
}

void Simulation::push(const Event& ev) {
  if (size_ == 0) {
    // Empty calendar: re-anchor the window at the clock so every schedulable
    // time (>= now) is representable.
    base_ = sweep_ = now_;
  }
  ++size_;
  if (ev.time < base_ + kWindow) {
    ring_push(ev);
  } else {
    heap_push(ev);
  }
}

void Simulation::ring_push(const Event& ev) {
  // A beat can fire before the calendar's head and schedule ahead of it;
  // pull the cursor back so the scan cannot pass the new event.
  if (ev.time < sweep_) sweep_ = ev.time;
  const std::size_t b = bucket_of(ev.time);
  ring_[b].items.push_back(ev);
  bits_[b >> 6] |= std::uint64_t{1} << (b & 63);
  ++ring_count_;
}

void Simulation::drain_overflow() {
  // Heap pops come out in (time, seq) order, so per-tick append order stays
  // FIFO. Events already in the ring for the same tick cannot exist: the
  // ring is empty whenever the window advances (see pop_event()).
  while (!overflow_.empty() && overflow_.front().time < base_ + kWindow) {
    ring_push(heap_pop());
  }
}

std::size_t Simulation::find_next_bucket() {
  std::size_t b = bucket_of(sweep_);
  std::size_t word = b >> 6;
  // First word: mask off buckets before the cursor.
  std::uint64_t w = bits_[word] & (~std::uint64_t{0} << (b & 63));
  for (std::size_t scanned = 0; scanned <= kWords; ++scanned) {
    if (w != 0) {
      const std::size_t found =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(w));
      // Translate the circular bucket index back to an absolute tick at or
      // after sweep_ (the ring spans less than one full window).
      const std::size_t cur = bucket_of(sweep_);
      const SimTime ahead = static_cast<SimTime>(
          found >= cur ? found - cur : kBuckets - cur + found);
      sweep_ += ahead;
      return found;
    }
    word = (word + 1) & (kWords - 1);
    w = bits_[word];
  }
  throw std::logic_error("Simulation: ring bitmap inconsistent");
}

void Simulation::heap_push(const Event& ev) {
  overflow_.push_back(ev);
  std::size_t i = overflow_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    Event& p = overflow_[parent];
    Event& c = overflow_[i];
    if (p.time < c.time || (p.time == c.time && p.seq < c.seq)) break;
    std::swap(p, c);
    i = parent;
  }
}

Event Simulation::heap_pop() {
  const Event out = overflow_.front();
  overflow_.front() = overflow_.back();
  overflow_.pop_back();
  const std::size_t n = overflow_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t l = 2 * i + 1;
    const std::size_t r = l + 1;
    std::size_t smallest = i;
    const auto less = [this](std::size_t a, std::size_t b) {
      const Event& x = overflow_[a];
      const Event& y = overflow_[b];
      return x.time < y.time || (x.time == y.time && x.seq < y.seq);
    };
    if (l < n && less(l, smallest)) smallest = l;
    if (r < n && less(r, smallest)) smallest = r;
    if (smallest == i) break;
    std::swap(overflow_[i], overflow_[smallest]);
    i = smallest;
  }
  return out;
}

const Event* Simulation::peek_event() {
  if (ring_count_ > 0) {
    const Bucket& bucket = ring_[find_next_bucket()];
    return &bucket.items[bucket.head];
  }
  return overflow_.empty() ? nullptr : &overflow_.front();
}

Event Simulation::pop_event() {
  if (ring_count_ == 0) {
    // Window exhausted: jump it to the next far-future event, the one about
    // to fire or be dropped.
    base_ = sweep_ = overflow_.front().time;
    drain_overflow();
  }
  const std::size_t b = find_next_bucket();
  Bucket& bucket = ring_[b];
  const Event ev = bucket.items[bucket.head];
  if (++bucket.head == bucket.items.size()) {
    bucket.items.clear();
    bucket.head = 0;
    bits_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  }
  --ring_count_;
  --size_;
  return ev;
}

}  // namespace woha::sim

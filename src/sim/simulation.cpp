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
  place(Event{when, next_seq_++, kind, a, b});
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

void Simulation::place(const Event& ev) {
  const std::uint64_t bucket = bucket_of(ev.time);
  if (bucket <= cur_) {
    near_.push_back(ev);
    std::push_heap(near_.begin(), near_.end(), later);
  } else if (bucket <= cur_ + kBuckets) {
    const std::size_t slot = bucket & (kBuckets - 1);
    ring_[slot].push_back(ev);
    bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    ++ring_count_;
  } else {
    far_.push_back(ev);
    std::push_heap(far_.begin(), far_.end(), later);
  }
}

bool Simulation::advance() {
  if (ring_count_ > 0) {
    // First non-empty slot after the current bucket's; the scan wraps at
    // most once, back to the words before its start.
    const std::uint64_t from = (cur_ + 1) & (kBuckets - 1);
    std::size_t word = from >> 6;
    std::uint64_t w = bits_[word] & (~std::uint64_t{0} << (from & 63));
    for (std::size_t scanned = 0; w == 0; ++scanned) {
      if (scanned == kWords) throw std::logic_error("Simulation: ring bitmap inconsistent");
      word = (word + 1) & (kWords - 1);
      w = bits_[word];
    }
    const std::uint64_t slot = (word << 6) + static_cast<std::uint64_t>(std::countr_zero(w));
    cur_ += 1 + ((slot - from) & (kBuckets - 1));
    bits_[word] &= ~(std::uint64_t{1} << (slot & 63));
    // Move before the far drain below: it refills this slot with bucket
    // cur_ + kBuckets.
    near_ = std::exchange(ring_[slot], {});
    ring_count_ -= near_.size();
    std::make_heap(near_.begin(), near_.end(), later);
  } else if (!far_.empty()) {
    cur_ = bucket_of(far_.front().time);
  } else {
    return false;
  }
  while (!far_.empty() && bucket_of(far_.front().time) <= cur_ + kBuckets) {
    std::pop_heap(far_.begin(), far_.end(), later);
    const Event ev = far_.back();
    far_.pop_back();
    place(ev);
  }
  return true;
}

}  // namespace woha::sim

#include "core/queue_naive.hpp"

#include <algorithm>
#include <stdexcept>

namespace woha::core {

void NaiveQueue::insert(std::uint32_t id, ProgressTracker tracker) {
  if (trackers_.size() <= id) trackers_.resize(std::size_t{id} + 1);
  if (trackers_[id]) throw std::invalid_argument("NaiveQueue: duplicate id");
  trackers_[id] = std::move(tracker);
  ++size_;
}

void NaiveQueue::remove(std::uint32_t id) {
  if (id >= trackers_.size() || !trackers_[id]) return;
  trackers_[id].reset();
  --size_;
}

std::vector<std::pair<std::int64_t, std::uint32_t>> NaiveQueue::ranked() const {
  std::vector<std::pair<std::int64_t, std::uint32_t>> order;
  order.reserve(size_);
  for (std::uint32_t id = 0; id < trackers_.size(); ++id) {
    if (trackers_[id]) order.emplace_back(-trackers_[id]->lag(), id);
  }
  std::sort(order.begin(), order.end());
  return order;
}

std::uint32_t NaiveQueue::assign(SimTime now, SlotType t,
                                 const std::function<bool(std::uint32_t)>& can_use) {
  (void)t;  // can_use answers for the offered type
  // "Update all workflows' progress lags and then reorder them."
  for (auto& tracker : trackers_) {
    if (tracker) tracker->advance_to(now);
  }
  for (const auto& [neg_lag, id] : ranked()) {
    if (can_use(id)) {
      trackers_[id]->count_scheduled();
      return id;
    }
  }
  return kNone;
}

void NaiveQueue::top(SlotType t, std::size_t k,
                     const std::function<bool(std::uint32_t)>& runnable,
                     std::vector<QueueEntry>& out) const {
  (void)t;  // runnable answers for the offered type
  // No cached ordering: rank exactly as assign() would without its
  // advance_to refresh.
  for (const auto& [neg_lag, id] : ranked()) {
    if (out.size() >= k) break;
    if (!runnable(id)) continue;
    const ProgressTracker& tr = *trackers_[id];
    out.push_back(QueueEntry{id, tr.lag(), tr.current_requirement(), tr.rho()});
  }
}

void NaiveQueue::on_progress_lost(std::uint32_t id, std::uint64_t count) {
  // No cached ordering to repair: assign() recomputes from scratch anyway.
  if (id >= trackers_.size() || !trackers_[id]) return;
  trackers_[id]->count_lost(count);
}

}  // namespace woha::core

#include "core/queue_naive.hpp"

#include <algorithm>
#include <stdexcept>

namespace woha::core {

void NaiveQueue::insert(std::uint32_t id, ProgressTracker tracker) {
  if (states_.count(id)) throw std::invalid_argument("NaiveQueue: duplicate id");
  states_.emplace(id, WfState{id, std::move(tracker)});
}

void NaiveQueue::remove(std::uint32_t id) { states_.erase(id); }

std::uint32_t NaiveQueue::assign(SimTime now, SlotType t,
                                 const std::function<bool(std::uint32_t)>& can_use) {
  (void)t;  // can_use answers for the offered type
  // "Update all workflows' progress lags and then reorder them."
  std::vector<std::pair<std::int64_t, std::uint32_t>> order;  // (-lag, id)
  order.reserve(states_.size());
  for (auto& [id, st] : states_) {
    st.tracker.advance_to(now);
    order.emplace_back(-st.tracker.lag(), id);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [neg_lag, id] : order) {
    if (can_use(id)) {
      states_.at(id).tracker.count_scheduled();
      return id;
    }
  }
  return kNone;
}

void NaiveQueue::top(SlotType t, std::size_t k,
                     const std::function<bool(std::uint32_t)>& runnable,
                     std::vector<QueueEntry>& out) const {
  (void)t;  // runnable answers for the offered type
  // No cached ordering: rank by the trackers' current (last-advanced) state,
  // exactly what assign() would sort by without the advance_to refresh.
  std::vector<std::pair<std::int64_t, std::uint32_t>> order;  // (-lag, id)
  order.reserve(states_.size());
  for (const auto& [id, st] : states_) {
    order.emplace_back(-st.tracker.lag(), id);
  }
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size() && out.size() < k; ++i) {
    if (!runnable(order[i].second)) continue;
    const WfState& st = states_.at(order[i].second);
    out.push_back(QueueEntry{st.id, st.tracker.lag(),
                             st.tracker.current_requirement(),
                             st.tracker.rho()});
  }
}

void NaiveQueue::on_progress_lost(std::uint32_t id, std::uint64_t count) {
  // No cached ordering to repair: assign() recomputes from scratch anyway.
  const auto it = states_.find(id);
  if (it == states_.end()) return;
  it->second.tracker.count_lost(count);
}

}  // namespace woha::core

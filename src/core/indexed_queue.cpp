#include "core/indexed_queue.hpp"

#include <stdexcept>
#include <string>

namespace woha::core {

namespace {

constexpr SlotType kSlotTypes[] = {SlotType::kMap, SlotType::kReduce};

constexpr std::size_t index(SlotType t) { return static_cast<std::size_t>(t); }

// Order::insert returns false on a duplicate key *without inserting*, so an
// unchecked call would silently drop the workflow from an ordering — it
// would never be scheduled again. Every internal insert and erase goes
// through these guards: a failure means a cached key went out of sync with
// its ordering, which is a corruption bug, never a recoverable condition.
template <class Order>
void checked_insert(Order& order, const QueueKey& key, const char* what) {
  if (!order.insert(key)) {
    throw std::logic_error(std::string(Order::kName) + " queue: duplicate key on " +
                           what);
  }
}

template <class Order>
void checked_erase(Order& order, const QueueKey& key, const char* what) {
  if (!order.erase(key)) {
    throw std::logic_error(std::string(Order::kName) + " queue: stale key on " + what);
  }
}

}  // namespace

template <class Order>
void IndexedQueue<Order>::insert(std::uint32_t id, ProgressTracker tracker) {
  if (entries_.size() <= id) entries_.resize(std::size_t{id} + 1);
  Entry& e = entries_[id];
  if (e.tracker) throw std::invalid_argument(name() + " queue: duplicate id");
  e.ct_key = tracker.next_change_time();
  e.pri_key = -tracker.lag();
  e.tracker = std::move(tracker);
  ++size_;
  checked_insert(ct_, {e.ct_key, id}, "insert");
  // A fresh tracker's first requirement step may already have fired, so the
  // memoized "clean at ct_clean_now_" claim no longer holds.
  ct_dirty_ = true;
}

template <class Order>
void IndexedQueue<Order>::remove(std::uint32_t id) {
  if (!queued(id)) return;
  Entry& e = entries_[id];
  checked_erase(ct_, {e.ct_key, id}, "remove");
  for (const SlotType t : kSlotTypes) {
    if (e.runnable[index(t)]) checked_erase(runnable_order(t), {e.pri_key, id}, "remove");
  }
  e = Entry{};
  --size_;
}

template <class Order>
void IndexedQueue<Order>::set_runnable(std::uint32_t id, SlotType t, bool runnable) {
  if (!queued(id)) return;
  bool& flag = entries_[id].runnable[index(t)];
  if (flag == runnable) {
    throw std::logic_error(name() + " queue: repeated runnable report for id " +
                           std::to_string(id));
  }
  flag = runnable;
  const QueueKey key{entries_[id].pri_key, id};
  if (runnable) {
    checked_insert(runnable_order(t), key, "runnable report");
  } else {
    checked_erase(runnable_order(t), key, "runnable report");
  }
}

template <class Order>
void IndexedQueue<Order>::reprioritize(std::uint32_t id) {
  Entry& e = entries_[id];
  const std::int64_t old_key = e.pri_key;
  e.pri_key = -e.tracker->lag();
  if (e.pri_key == old_key) return;
  for (const SlotType t : kSlotTypes) {
    if (!e.runnable[index(t)]) continue;
    checked_erase(runnable_order(t), {old_key, id}, "reposition");
    checked_insert(runnable_order(t), {e.pri_key, id}, "reposition");
  }
}

template <class Order>
void IndexedQueue<Order>::refresh_fired(SimTime now) {
  // Phase 1 (Algorithm 2, lines 4-19): workflows whose next requirement
  // change has fired leave the ct head, get a fresh priority, and re-enter.
  // Once this ran for an instant, re-running it at the same instant cannot
  // move anything (next_change_time is strictly in the future after a
  // refresh) unless an insert added a workflow whose first step already
  // fired — so the (ct_clean_now_, ct_dirty_) memo skips even the head peek
  // on the common repeat-consult case.
  if (!ct_dirty_ && ct_clean_now_ == now) return;
  while (!ct_.empty()) {
    const QueueKey key = ct_.head();
    if (key.first > now) break;
    ct_.erase_head(key);
    const std::uint32_t id = key.second;
    Entry& e = entries_[id];
    e.tracker->advance_to(now);
    reprioritize(id);
    e.ct_key = e.tracker->next_change_time();
    checked_insert(ct_, {e.ct_key, id}, "refresh");
  }
  ct_clean_now_ = now;
  ct_dirty_ = false;
}

template <class Order>
std::uint32_t IndexedQueue<Order>::assign(
    SimTime now, SlotType t, const std::function<bool(std::uint32_t)>& can_use) {
  refresh_fired(now);

  // Phase 2 (lines 20-24): serve the most-lagging workflow that can use the
  // slot. Without a per-offer filter that is the head of the type's
  // ordering — exactly where the Double Skip List earns its O(1) head
  // deletion; an offer that filters out blacklisted jobs walks on.
  Order& order = runnable_order(t);
  if (order.empty()) return kNone;
  QueueKey chosen = order.head();
  if (can_use(chosen.second)) {
    order.erase_head(chosen);
  } else {
    const std::uint32_t head_id = chosen.second;
    chosen.second = kNone;
    order.for_each([&](const QueueKey& key) {
      if (key.second == head_id || !can_use(key.second)) return true;
      chosen = key;
      return false;
    });
    if (chosen.second == kNone) return kNone;
    checked_erase(order, chosen, "assignment");
  }

  const std::uint32_t id = chosen.second;
  Entry& e = entries_[id];
  e.tracker->count_scheduled();  // rho+1 <=> p-1
  e.pri_key = -e.tracker->lag();
  checked_insert(order, {e.pri_key, id}, "assignment");
  // The winner's key moved in the other type's ordering too.
  const SlotType other = t == SlotType::kMap ? SlotType::kReduce : SlotType::kMap;
  if (e.runnable[index(other)]) {
    checked_erase(runnable_order(other), chosen, "assignment");
    checked_insert(runnable_order(other), {e.pri_key, id}, "assignment");
  }
  return id;
}

template <class Order>
void IndexedQueue<Order>::on_progress_lost(std::uint32_t id, std::uint64_t count) {
  if (!queued(id)) return;
  entries_[id].tracker->count_lost(count);  // rho-n <=> p+n
  reprioritize(id);
}

template <class Order>
void IndexedQueue<Order>::top(SlotType t, std::size_t k,
                              const std::function<bool(std::uint32_t)>& runnable,
                              std::vector<QueueEntry>& out) const {
  (void)runnable;  // the ordering holds exactly the runnable workflows
  runnable_[index(t)].for_each([&](const QueueKey& key) {
    if (out.size() >= k) return false;
    const ProgressTracker& tr = *entries_[key.second].tracker;
    out.push_back(QueueEntry{key.second, tr.lag(), tr.current_requirement(), tr.rho()});
    return true;
  });
}

template <class Order>
void IndexedQueue<Order>::check_structure(
    const std::function<bool(std::uint32_t, SlotType)>& runnable) const {
  // Messages are only built on failure: the auditor sweeps big queues.
  const auto fail = [this](const std::string& what, std::uint32_t id,
                           const std::string& detail = "") {
    throw std::logic_error(name() + " queue::check_structure: " + what + " for id " +
                           std::to_string(id) + detail);
  };
  const auto values = [](std::int64_t cached, std::int64_t tracker) {
    return " (cached=" + std::to_string(cached) + " tracker=" + std::to_string(tracker) +
           ")";
  };
  // The table, in id order: cached keys in sync with the trackers, and the
  // runnable flags with the caller's `runnable`.
  std::size_t queued_count = 0;
  std::size_t flagged[2] = {0, 0};
  for (std::uint32_t id = 0; id < entries_.size(); ++id) {
    const Entry& e = entries_[id];
    if (!e.tracker) continue;
    ++queued_count;
    if (e.ct_key != e.tracker->next_change_time()) {
      fail("cached ct_key stale", id, values(e.ct_key, e.tracker->next_change_time()));
    }
    if (e.pri_key != -e.tracker->lag()) {
      fail("cached pri_key stale", id, values(e.pri_key, -e.tracker->lag()));
    }
    for (const SlotType t : kSlotTypes) {
      const bool in_order = e.runnable[index(t)];
      flagged[index(t)] += in_order ? 1 : 0;
      if (runnable && runnable(id, t) != in_order) {
        fail(std::string(in_order ? "non-runnable workflow in the "
                                  : "runnable workflow missing from the ") +
                 to_string(t) + " ordering",
             id);
      }
    }
  }
  if (queued_count != size_) {
    throw std::logic_error(name() + " queue::check_structure: table holds " +
                           std::to_string(queued_count) + " queued workflows, size " +
                           std::to_string(size_));
  }
  // Then each ordering: keys strictly ascending, each naming a member by its
  // cached key (`cached_key(e)` is null for a queued entry that is not one),
  // and as many keys as members. Ids make keys unique, so with equal counts
  // every member sits in the ordering exactly once.
  const auto check_order = [&](const Order& order, const std::string& what,
                               std::size_t members, const auto& cached_key) {
    order.validate();
    if (order.size() != members) {
      throw std::logic_error(name() + " queue::check_structure: " + what +
                             " ordering holds " + std::to_string(order.size()) +
                             " entries for " + std::to_string(members) + " workflows");
    }
    const QueueKey* prev = nullptr;
    order.for_each([&](const QueueKey& key) {
      const std::uint32_t id = key.second;
      if (prev != nullptr && !(*prev < key)) {
        fail(what + " ordering keys not strictly ascending", id);
      }
      prev = &key;
      const std::int64_t* cached = queued(id) ? cached_key(entries_[id]) : nullptr;
      if (cached == nullptr) fail(what + " ordering entry not a member", id);
      if (key.first != *cached) {
        fail(what + " ordering key disagrees with the cached key", id);
      }
      return true;
    });
  };
  check_order(ct_, "ct", size_, [](const Entry& e) { return &e.ct_key; });
  for (const SlotType t : kSlotTypes) {
    check_order(runnable_[index(t)], to_string(t), flagged[index(t)],
                [t](const Entry& e) {
                  return e.runnable[index(t)] ? &e.pri_key : nullptr;
                });
  }
}

template class IndexedQueue<SkipListOrder>;
template class IndexedQueue<FlatTreeOrder<true>>;
template class IndexedQueue<FlatTreeOrder<false>>;

}  // namespace woha::core

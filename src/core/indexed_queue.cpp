#include "core/indexed_queue.hpp"

#include <stdexcept>
#include <string>

namespace woha::core {

namespace {

constexpr SlotType kSlotTypes[] = {SlotType::kMap, SlotType::kReduce};

// Order::insert returns false on a duplicate key *without inserting*, so an
// unchecked call would silently drop the workflow from an ordering — it
// would never be scheduled again. Every internal insert and erase goes
// through these guards: a failure means a cached key went out of sync with
// its ordering, which is a corruption bug, never a recoverable condition.
template <class Order>
void checked_insert(Order& order, const QueueKey& key, std::uint32_t slot,
                    const char* what) {
  if (!order.insert(key, slot)) {
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
  if (arena_.slot_of(id) != WfStateArena::kNilSlot) {
    throw std::invalid_argument(name() + " queue: duplicate id");
  }
  const std::uint32_t slot = arena_.allocate(id, std::move(tracker));
  const ProgressTracker& t = arena_.tracker(slot);
  arena_.ct_key(slot) = t.next_change_time();
  arena_.pri_key(slot) = -t.lag();
  checked_insert(ct_, {arena_.ct_key(slot), id}, slot, "insert");
  // A fresh tracker's first requirement step may already have fired, so the
  // memoized "clean at ct_clean_now_" claim no longer holds.
  ct_dirty_ = true;
}

template <class Order>
void IndexedQueue<Order>::remove(std::uint32_t id) {
  const std::uint32_t slot = arena_.slot_of(id);
  if (slot == WfStateArena::kNilSlot) return;
  checked_erase(ct_, {arena_.ct_key(slot), id}, "remove");
  for (const SlotType t : kSlotTypes) {
    if (arena_.runnable(slot, t)) {
      checked_erase(runnable_order(t), {arena_.pri_key(slot), id}, "remove");
    }
  }
  arena_.release(slot);
}

template <class Order>
void IndexedQueue<Order>::set_runnable(std::uint32_t id, SlotType t, bool runnable) {
  const std::uint32_t slot = arena_.slot_of(id);
  if (slot == WfStateArena::kNilSlot) return;
  if (arena_.runnable(slot, t) == runnable) {
    throw std::logic_error(name() + " queue: repeated runnable report for id " +
                           std::to_string(id));
  }
  arena_.set_runnable(slot, t, runnable);
  const QueueKey key{arena_.pri_key(slot), id};
  if (runnable) {
    checked_insert(runnable_order(t), key, slot, "runnable report");
  } else {
    checked_erase(runnable_order(t), key, "runnable report");
  }
}

template <class Order>
void IndexedQueue<Order>::reprioritize(std::uint32_t slot) {
  const std::uint32_t id = arena_.id(slot);
  const std::int64_t old_key = arena_.pri_key(slot);
  arena_.pri_key(slot) = -arena_.tracker(slot).lag();
  if (arena_.pri_key(slot) == old_key) return;
  for (const SlotType t : kSlotTypes) {
    if (!arena_.runnable(slot, t)) continue;
    checked_erase(runnable_order(t), {old_key, id}, "reposition");
    checked_insert(runnable_order(t), {arena_.pri_key(slot), id}, slot, "reposition");
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
    const auto [key, slot] = ct_.head();
    if (key.first > now) break;
    ct_.erase_head(key);
    ProgressTracker& t = arena_.tracker(slot);
    t.advance_to(now);
    reprioritize(slot);
    arena_.ct_key(slot) = t.next_change_time();
    checked_insert(ct_, {arena_.ct_key(slot), arena_.id(slot)}, slot, "refresh");
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
  const auto [head_key, head_slot] = order.head();
  std::uint32_t chosen = head_slot;
  QueueKey chosen_key = head_key;
  if (can_use(arena_.id(head_slot))) {
    order.erase_head(head_key);
  } else {
    chosen = WfStateArena::kNilSlot;
    order.for_each([&](const QueueKey& key, std::uint32_t slot) {
      if (slot == head_slot || !can_use(arena_.id(slot))) return true;
      chosen = slot;
      chosen_key = key;
      return false;
    });
    if (chosen == WfStateArena::kNilSlot) return kNone;
    checked_erase(order, chosen_key, "assignment");
  }

  const std::uint32_t id = arena_.id(chosen);
  arena_.tracker(chosen).count_scheduled();  // rho+1 <=> p-1
  arena_.pri_key(chosen) = -arena_.tracker(chosen).lag();
  checked_insert(order, {arena_.pri_key(chosen), id}, chosen, "assignment");
  // The winner's key moved in the other type's ordering too.
  const SlotType other = t == SlotType::kMap ? SlotType::kReduce : SlotType::kMap;
  if (arena_.runnable(chosen, other)) {
    checked_erase(runnable_order(other), {chosen_key.first, id}, "assignment");
    checked_insert(runnable_order(other), {arena_.pri_key(chosen), id}, chosen,
                   "assignment");
  }
  return id;
}

template <class Order>
void IndexedQueue<Order>::on_progress_lost(std::uint32_t id, std::uint64_t count) {
  const std::uint32_t slot = arena_.slot_of(id);
  if (slot == WfStateArena::kNilSlot) return;
  arena_.tracker(slot).count_lost(count);  // rho-n <=> p+n
  reprioritize(slot);
}

template <class Order>
void IndexedQueue<Order>::top(SlotType t, std::size_t k,
                              const std::function<bool(std::uint32_t)>& runnable,
                              std::vector<QueueEntry>& out) const {
  (void)runnable;  // the ordering holds exactly the runnable workflows
  runnable_[static_cast<std::size_t>(t)].for_each(
      [&](const QueueKey&, std::uint32_t slot) {
        if (out.size() >= k) return false;
        const ProgressTracker& tr = arena_.tracker(slot);
        out.push_back(
            QueueEntry{arena_.id(slot), tr.lag(), tr.current_requirement(), tr.rho()});
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
  arena_.check(Order::kName);
  ct_.validate();
  if (ct_.size() != arena_.size()) {
    throw std::logic_error(name() + " queue::check_structure: ct ordering holds " +
                           std::to_string(ct_.size()) + " of " +
                           std::to_string(arena_.size()) + " queued workflows");
  }
  // Walk the ct ordering: keys strictly ascending, cached keys in sync with
  // the trackers and with the node keys, every entry resolving into the
  // arena. Unique keys carrying the entry's id plus equal sizes make it
  // cover each queued workflow exactly once, so this walk (rather than the
  // arena's unordered id map, keeping the check deterministic) also counts
  // runnable flags and checks them against the caller's `runnable`.
  std::size_t flagged[2] = {0, 0};
  const QueueKey* prev = nullptr;
  ct_.for_each([&](const QueueKey& key, std::uint32_t slot) {
    const std::uint32_t id = arena_.id(slot);
    if (prev != nullptr && !(*prev < key)) fail("ct keys not strictly ascending", id);
    prev = &key;
    if (arena_.slot_of(id) != slot) fail("ct entry not backed by the arena", id);
    if (key.first != arena_.ct_key(slot) || key.second != id) {
      fail("ct node key disagrees with the cached ct_key", id);
    }
    const ProgressTracker& tr = arena_.tracker(slot);
    if (arena_.ct_key(slot) != tr.next_change_time()) {
      fail("cached ct_key stale", id, values(arena_.ct_key(slot), tr.next_change_time()));
    }
    if (arena_.pri_key(slot) != -tr.lag()) {
      fail("cached pri_key stale", id, values(arena_.pri_key(slot), -tr.lag()));
    }
    for (const SlotType t : kSlotTypes) {
      const bool in_order = arena_.runnable(slot, t);
      flagged[static_cast<std::size_t>(t)] += in_order ? 1 : 0;
      if (runnable && runnable(id, t) != in_order) {
        fail(std::string(in_order ? "non-runnable workflow in the "
                                  : "runnable workflow missing from the ") +
                 to_string(t) + " ordering",
             id);
      }
    }
    return true;
  });
  for (const SlotType t : kSlotTypes) {
    const Order& order = runnable_[static_cast<std::size_t>(t)];
    const std::string type = to_string(t);
    order.validate();
    if (order.size() != flagged[static_cast<std::size_t>(t)]) {
      throw std::logic_error(name() + " queue::check_structure: " + type +
                             " ordering holds " + std::to_string(order.size()) +
                             " entries for " +
                             std::to_string(flagged[static_cast<std::size_t>(t)]) +
                             " flagged workflows");
    }
    prev = nullptr;
    order.for_each([&](const QueueKey& key, std::uint32_t slot) {
      const std::uint32_t id = arena_.id(slot);
      if (prev != nullptr && !(*prev < key)) {
        fail(type + " ordering keys not strictly ascending", id);
      }
      prev = &key;
      if (arena_.slot_of(id) != slot || !arena_.runnable(slot, t)) {
        fail(type + " ordering entry not a flagged queued workflow", id);
      }
      if (key.first != arena_.pri_key(slot) || key.second != id) {
        fail(type + " ordering key disagrees with the cached pri_key", id);
      }
      return true;
    });
  }
}

template class IndexedQueue<SkipListOrder>;
template class IndexedQueue<FlatTreeOrder<true>>;
template class IndexedQueue<FlatTreeOrder<false>>;

}  // namespace woha::core

// The scheduler queue over the runnable index (paper Section IV-B,
// Algorithm 2), one template for the three ordering structures of
// Fig. 13(a):
//   * SkipListOrder         — the Double Skip List ("DSL"): O(1) head
//                             deletion, O(log n) repositioning;
//   * FlatTreeOrder<true>   — a balanced BST with a cached leftmost node
//                             ("BST", std::map's begin());
//   * FlatTreeOrder<false>  — the textbook balanced BST ("BSTplain"): every
//                             head access is a root-to-leftmost descent.
//
// Each queue keeps one table of per-workflow state indexed by workflow id,
// and three orderings of (key, id) pairs over it:
//   * ct            keyed by (next-change-time, id) — every queued workflow;
//   * runnable[t]   keyed by (-lag, id) — the workflows runnable for slot
//                   type t, so the front is the most lagging one that can
//                   use a type-t slot.
// A workflow's lag is one number, so a move in priority (ct refresh, rho
// bump, progress loss) repositions it in every runnable ordering holding it.
// The ct refresh is memoized per instant: at an instant the orderings are
// already clean for, Phase 1 is skipped without even peeking the head.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "core/flat_tree.hpp"
#include "core/scheduler_queue.hpp"
#include "core/skiplist.hpp"

namespace woha::core {

/// (ordering key, workflow id): ids make every key unique.
using QueueKey = std::pair<std::int64_t, std::uint32_t>;

/// The Double Skip List's ordering: the head comes off in O(1).
class SkipListOrder {
 public:
  static constexpr const char* kName = "DSL";
  bool insert(const QueueKey& key) { return list_.insert(key, key.second); }
  bool erase(const QueueKey& key) { return list_.erase(key); }
  [[nodiscard]] bool empty() const { return list_.empty(); }
  [[nodiscard]] std::size_t size() const { return list_.size(); }
  [[nodiscard]] QueueKey head() const { return list_.front().first; }
  /// Remove the head, whose key the caller just read: O(1).
  void erase_head(const QueueKey&) { list_.pop_front(); }
  template <class Visitor>
  void for_each(Visitor&& visit) const {
    list_.for_each([&](const QueueKey& key, std::uint32_t) { return visit(key); });
  }
  /// The skip list has no shape invariant beyond order, which the queue's
  /// own walk checks.
  void validate() const {}

 private:
  SkipList<QueueKey, std::uint32_t> list_;
};

/// A balanced BST ordering. `kCachedMin` reads the head from the cached
/// leftmost node; otherwise every head access descends from the root.
template <bool kCachedMin>
class FlatTreeOrder {
 public:
  static constexpr const char* kName = kCachedMin ? "BST" : "BSTplain";
  bool insert(const QueueKey& key) { return tree_.insert(key, key.second); }
  bool erase(const QueueKey& key) { return tree_.erase(key); }
  [[nodiscard]] bool empty() const { return tree_.empty(); }
  [[nodiscard]] std::size_t size() const { return tree_.size(); }
  [[nodiscard]] QueueKey head() const {
    return tree_.key(kCachedMin ? tree_.min_node() : tree_.min_descend());
  }
  /// Remove the head, whose key the caller just read: O(log n).
  void erase_head(const QueueKey& head_key) { tree_.erase(head_key); }
  template <class Visitor>
  void for_each(Visitor&& visit) const {
    tree_.for_each([&](const QueueKey& key, std::uint32_t) { return visit(key); });
  }
  void validate() const { tree_.validate(); }

 private:
  FlatTree<QueueKey> tree_;
};

template <class Order>
class IndexedQueue final : public SchedulerQueue {
 public:
  [[nodiscard]] std::string name() const override { return Order::kName; }
  void insert(std::uint32_t id, ProgressTracker tracker) override;
  void remove(std::uint32_t id) override;
  void set_runnable(std::uint32_t id, SlotType t, bool runnable) override;
  std::uint32_t assign(SimTime now, SlotType t,
                       const std::function<bool(std::uint32_t)>& can_use) override;
  void on_progress_lost(std::uint32_t id, std::uint64_t count) override;
  [[nodiscard]] std::size_t size() const override { return size_; }
  void top(SlotType t, std::size_t k,
           const std::function<bool(std::uint32_t)>& runnable,
           std::vector<QueueEntry>& out) const override;
  void check_structure(
      const std::function<bool(std::uint32_t, SlotType)>& runnable = {}) const override;

 private:
  /// Auditor failure-path tests corrupt cached keys through this peer.
  friend struct QueueTestPeer;

  /// One workflow's state. The cached keys are the workflow's keys in the
  /// orderings, so an erase can find it after its tracker moved on.
  struct Entry {
    std::optional<ProgressTracker> tracker;  ///< empty: the id is not queued
    SimTime ct_key = 0;
    std::int64_t pri_key = 0;
    bool runnable[2] = {false, false};  ///< in slot type t's ordering
  };

  [[nodiscard]] bool queued(std::uint32_t id) const {
    return id < entries_.size() && entries_[id].tracker.has_value();
  }
  [[nodiscard]] Order& runnable_order(SlotType t) {
    return runnable_[static_cast<std::size_t>(t)];
  }
  /// Phase 1 (Algorithm 2, lines 4-19), memoized per instant: pop fired ct
  /// heads and reposition them. No-op when the orderings are already clean
  /// for `now` and nothing was inserted since.
  void refresh_fired(SimTime now);
  /// Store the tracker's current lag as the workflow's priority key and
  /// move it in every runnable ordering that holds it.
  void reprioritize(std::uint32_t id);

  std::vector<Entry> entries_;  ///< by workflow id
  std::size_t size_ = 0;        ///< queued entries
  Order ct_;
  Order runnable_[2];
  /// Instant the ct ordering was last refreshed to; valid while !ct_dirty_.
  SimTime ct_clean_now_ = 0;
  bool ct_dirty_ = true;
};

using DslQueue = IndexedQueue<SkipListOrder>;
using BstQueue = IndexedQueue<FlatTreeOrder<true>>;
using BstPlainQueue = IndexedQueue<FlatTreeOrder<false>>;

extern template class IndexedQueue<SkipListOrder>;
extern template class IndexedQueue<FlatTreeOrder<true>>;
extern template class IndexedQueue<FlatTreeOrder<false>>;

}  // namespace woha::core

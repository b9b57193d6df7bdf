// The master-side workflow queue behind WOHA's AssignTask (Algorithm 2).
//
// The scheduler keeps, over queued workflows:
//   * the ct ordering — by the absolute time of the next progress-requirement
//                       change (ascending), and
//   * the priority ordering — by progress lag p = F(ttd) - rho (descending),
//                       split per slot type into the workflows that have an
//                       available task of that type (their runnable reports).
//
// AssignTask (a) refreshes the priorities of the workflows at the head of
// the ct ordering whose change events have fired, then (b) serves the
// highest-priority workflow that can actually use the slot, bumps its rho,
// and repositions it. Algorithm 2 walks every workflow and skips those with
// nothing to run; the per-type orderings hold exactly the ones it would not
// skip, so the decisions are the same. Four implementations back the
// paper's Fig. 13(a) ablation: the Double Skip List (the contribution), two
// balanced-BST cost models, and the naive recompute-and-rescan loop.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/progress_tracker.hpp"

namespace woha::core {

class SchedulerQueue {
 public:
  virtual ~SchedulerQueue() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Add a workflow with its freshly-built tracker. `id` must not be
  /// queued. Queues keep their state in a table indexed by id, so callers
  /// keep ids dense, as JobTracker's WorkflowIds are. The workflow is
  /// runnable for no slot type until set_runnable says so.
  virtual void insert(std::uint32_t id, ProgressTracker tracker) = 0;

  /// Remove a finished workflow. No-op when absent.
  virtual void remove(std::uint32_t id) = 0;

  /// The workflow gained (`runnable`) or lost its last available task of
  /// type `t`. Reports must alternate per (id, t). No-op when absent.
  virtual void set_runnable(std::uint32_t id, SlotType t, bool runnable) = 0;

  /// Algorithm 2: update stale orderings up to `now`, then serve the first
  /// workflow in descending-priority order for which `can_use(id)` holds;
  /// its rho is incremented and its position updated. Returns its id, or
  /// kNone when no queued workflow can use the slot.
  ///
  /// `can_use(id)` must be false for a workflow not runnable for `t`.
  /// Indexed queues walk only their type-`t` ordering, so with no per-offer
  /// filter the head wins at the first probe; NaiveQueue probes every
  /// queued workflow.
  virtual std::uint32_t assign(SimTime now, SlotType t,
                               const std::function<bool(std::uint32_t)>& can_use) = 0;

  /// Progress regression: `count` tasks previously handed to `id` were lost
  /// to a tracker crash and will be re-executed. Undoes that many
  /// count_scheduled() bumps (rho decreases, lag and hence priority grow)
  /// and repositions the workflow so the priority ordering stays coherent.
  /// No-op when the workflow is not queued (already finished/failed).
  virtual void on_progress_lost(std::uint32_t id, std::uint64_t count) = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;

  /// One queued workflow as the priority ordering currently ranks it — the
  /// explainability snapshot behind obs::SchedulerDecision.
  struct QueueEntry {
    std::uint32_t id = 0;
    std::int64_t lag = 0;           ///< priority p = F(ttd) - rho (descending)
    std::uint64_t requirement = 0;  ///< F at the tracker's last refresh
    std::uint64_t rho = 0;          ///< tasks handed to slots so far
  };

  /// Append up to `k` workflows runnable for `t`, in descending-priority
  /// order. Indexed queues list their type-`t` ordering as it stands;
  /// NaiveQueue, which keeps no runnable state, lists the workflows for
  /// which `runnable(id)` holds. Strictly read-only: tracing one decision
  /// can never influence the next.
  virtual void top(SlotType t, std::size_t k,
                   const std::function<bool(std::uint32_t)>& runnable,
                   std::vector<QueueEntry>& out) const = 0;

  /// Validate internal structure (audit support): cached ordering keys in
  /// sync with the trackers, every ordering sorted, the ct ordering
  /// covering the queued workflows, and — when `runnable` is given — slot
  /// type t's ordering holding a queued workflow iff runnable(id, t).
  /// Throws std::logic_error with a descriptive message on corruption.
  /// Read-only; the default (for queues without cached structure) checks
  /// nothing.
  virtual void check_structure(
      const std::function<bool(std::uint32_t, SlotType)>& runnable = {}) const {
    (void)runnable;
  }

  static constexpr std::uint32_t kNone = 0xffffffffu;
};

/// The ablation's head-access cost models. kBst caches the ordering's
/// leftmost node, as std::map does — a stronger baseline than the paper's.
/// kBstPlain models the textbook balanced BST the paper compared against:
/// every head access pays a root-to-leftmost descent.
enum class QueueKind : std::uint8_t { kDsl, kBst, kBstPlain, kNaive };

[[nodiscard]] const char* to_string(QueueKind kind);
[[nodiscard]] std::unique_ptr<SchedulerQueue> make_queue(QueueKind kind);

}  // namespace woha::core

// Debug-build simulation invariant auditor.
//
// Golden digests catch determinism regressions only after the fact, as an
// opaque hash mismatch. The auditor catches the *mechanism* the moment it
// breaks: it rides the obs event bus (so it can never perturb the run — the
// bus is synchronous, consumes no RNG draws, and publishes after state
// transitions complete) and cross-checks the engine's visible state against
// an independently maintained shadow after each heartbeat:
//
//  * event-stream time monotonicity (the discrete-event core must hand
//    events out in nondecreasing sim-time order),
//  * cluster slot conservation — per heartbeat for the heartbeating tracker,
//    and for every tracker on the periodic full sweep: free + running
//    attempts == configured slots per type, and the pooled-tracker sum
//    equals Cluster::total_free,
//  * each tracker's lifecycle record — whether its slots are pooled, it is
//    draining, it retired — against a shadow built from the tracker events,
//    on every full sweep and at each loss, restart and retirement,
//  * per-workflow progress accounting: queue rho == requirement - lag,
//    >= completed tasks, <= WorkflowRuntime::tasks_scheduled(), and (when
//    no retry path is configured) <= the plan's total task count,
//  * plan monotonicity: every F_i strictly decreases in ttd with
//    non-decreasing cumulative requirements — re-checked after rollbacks,
//  * scheduler queue structure via SchedulerQueue::check_structure():
//    cached keys in sync with trackers, every ordering sorted, the ct
//    ordering covering the queued workflows, and each slot type's ordering
//    holding a queued workflow iff available_jobs(type) > 0,
//  * the JobTracker's runnable-job index (what FIFO and Fair schedule
//    from): per slot type, exactly the jobs with has_available, in the
//    activation order the JobActivated events gave, and its count.
//
// Violations throw InvariantViolation with a structured dump (sim time,
// invariant name, workflow, expected/actual) so a CI failure pinpoints the
// broken bookkeeping instead of printing two different digests.
//
// Enabled per-run via EngineConfig::audit (metrics::run_experiment attaches
// one when set). Off means no subscription: publish sites see an inactive
// bus and the run is bit- and wall-clock-identical to an unaudited one.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/scheduler_queue.hpp"
#include "hadoop/cluster.hpp"
#include "hadoop/job.hpp"
#include "obs/event_bus.hpp"

namespace woha::hadoop {
class Engine;
}  // namespace woha::hadoop

namespace woha::core {
class WohaScheduler;
}  // namespace woha::core

namespace woha::audit {

inline constexpr std::uint32_t kNoWorkflow = 0xffffffffu;

/// Thrown on any failed audit check. what() carries the full structured
/// dump; the individual fields stay accessible for tests.
class InvariantViolation : public std::logic_error {
 public:
  InvariantViolation(std::string invariant, SimTime time, std::int64_t expected,
                     std::int64_t actual, std::string detail,
                     std::uint32_t workflow = kNoWorkflow);

  [[nodiscard]] const std::string& invariant() const { return invariant_; }
  [[nodiscard]] SimTime time() const { return time_; }
  [[nodiscard]] std::int64_t expected() const { return expected_; }
  [[nodiscard]] std::int64_t actual() const { return actual_; }
  [[nodiscard]] std::uint32_t workflow() const { return workflow_; }

 private:
  std::string invariant_;
  SimTime time_;
  std::int64_t expected_;
  std::int64_t actual_;
  std::uint32_t workflow_;
};

struct AuditConfig {
  /// Heartbeats between full sweeps (every-tracker slot conservation and
  /// lifecycle records, queue structure, workflow progress sampling).
  /// Per-event shadow updates and per-tracker heartbeat checks always run.
  std::uint64_t full_sweep_period = 64;
};

class InvariantAuditor {
 public:
  /// Subscribes to engine.events(); attach before Engine::run(). The engine
  /// must outlive the auditor.
  explicit InvariantAuditor(hadoop::Engine& engine, AuditConfig config = {});
  ~InvariantAuditor();
  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  /// Run every full-sweep check against the current engine state. Called
  /// automatically on the sweep cadence; tests also call it after run().
  void full_sweep();

  [[nodiscard]] std::uint64_t events_seen() const { return events_seen_; }
  [[nodiscard]] std::uint64_t heartbeats_seen() const { return heartbeats_seen_; }
  [[nodiscard]] std::uint64_t sweeps_run() const { return sweeps_run_; }

 private:
  using Life = hadoop::TrackerState::Life;

  struct ShadowAttempt {
    std::size_t tracker = 0;
    std::size_t slot = 0;  ///< SlotType as index
    std::uint32_t workflow = 0;
  };

  void on_event(const obs::Event& event);
  /// Slot conservation for one tracker: free + shadow-running == capacity.
  void check_tracker_slots(std::size_t tracker, SimTime t) const;
  /// The cluster records `tracker` in `expected` when `event` is published.
  void check_life(const char* invariant, std::size_t tracker, Life expected,
                  const char* event, SimTime t) const;
  /// One tracker's lifecycle record against the pooled_/draining_/retired_
  /// shadow.
  void check_tracker_record(std::size_t tracker, SimTime t) const;
  /// Slot conservation and lifecycle records of every tracker, and the
  /// aggregate free-slot totals.
  void check_cluster(SimTime t) const;
  /// Queue structure (each slot type's ordering holding exactly the
  /// workflows runnable for it) + head-sampled per-workflow progress
  /// accounting.
  void check_scheduler(SimTime t) const;
  /// Priority order and progress accounting of one top() sample.
  void check_queue_entries(const std::vector<core::SchedulerQueue::QueueEntry>& entries,
                           const core::WohaScheduler& woha, SimTime t) const;
  /// F_i shape for one workflow's plan (no-op for non-WOHA schedulers or
  /// already-dequeued workflows).
  void check_plan(std::uint32_t workflow, SimTime t) const;
  /// Admission conservation (submitted == admitted + rejected, shed <=
  /// admitted) and the pending-budget bound under enforcing policies.
  void check_admission(SimTime t) const;
  /// Recompute each slot type's runnable jobs from activated_ and compare
  /// them, in order, and their count with the JobTracker's index. Drops
  /// completed and failed jobs from activated_ (they never run again).
  void check_runnable_index(SimTime t);

  [[noreturn]] static void fail(const std::string& invariant, SimTime t,
                                std::int64_t expected, std::int64_t actual,
                                const std::string& detail,
                                std::uint32_t workflow = kNoWorkflow);

  hadoop::Engine& engine_;
  AuditConfig config_;
  obs::EventBus::SubscriptionId subscription_ = 0;
  /// Retries re-bump rho past the plan total; only assert the rho <=
  /// total-tasks ceiling when the config rules every retry path out.
  bool retries_possible_ = false;

  // Shadow state, rebuilt purely from the event stream.
  SimTime last_event_time_ = 0;
  std::map<std::uint64_t, ShadowAttempt> attempts_;        ///< running, by id
  std::vector<std::array<std::uint32_t, 2>> running_;      ///< per tracker/type
  /// Tracker slots still counted in the cluster aggregate: true until a
  /// TrackerLost reconciliation, true again after TrackerRestarted.
  std::vector<bool> pooled_;
  /// Draining out (TrackerDraining / PreemptionWarning): must never receive
  /// a TaskStarted. Survives a crash; cleared on retirement or on
  /// TrackerRestarted (a crash-interrupted drain is forgotten).
  std::vector<bool> draining_;
  /// Permanently retired (TrackerDecommissioned): nothing may ever run
  /// there again.
  std::vector<bool> retired_;

  // Admission conservation, rebuilt from workflow lifecycle events and
  // cross-checked against Engine::admission_stats() on every full sweep.
  std::uint64_t admitted_seen_ = 0;
  std::uint64_t rejected_seen_ = 0;
  std::uint64_t shed_seen_ = 0;

  /// Activated jobs not yet seen complete or failed, in JobActivated order.
  std::vector<hadoop::JobRef> activated_;

  std::uint64_t events_seen_ = 0;
  std::uint64_t heartbeats_seen_ = 0;
  std::uint64_t sweeps_run_ = 0;
};

}  // namespace woha::audit

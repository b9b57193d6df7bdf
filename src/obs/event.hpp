// Typed structured events — the vocabulary of the observability layer.
//
// Every interesting state transition in a run (workflow/job/task lifecycle,
// heartbeats, node faults, speculative launches, queue reorders, scheduler
// decisions) is one of the payload structs below, stamped with the simulated
// time it happened at and published on the EventBus. Exporters (JSONL,
// Chrome trace_event, slot timelines) and tests consume the same stream;
// nothing in the simulator ever *reads* the bus, so publishing can never
// perturb simulated time or RNG draws.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/types.hpp"

namespace woha::obs {

// ---- workflow lifecycle ----------------------------------------------------

/// A workflow was registered on the master (paper step (f)).
struct WorkflowSubmitted {
  std::uint32_t workflow = 0;
  std::string name;
  SimTime deadline = kTimeInfinity;  ///< absolute; kTimeInfinity = none
  std::uint32_t jobs = 0;
};

/// All jobs of the workflow finished.
struct WorkflowCompleted {
  std::uint32_t workflow = 0;
  bool met_deadline = false;
};

/// A task exhausted its attempt budget; the workflow terminated unfinished.
struct WorkflowFailed {
  std::uint32_t workflow = 0;
};

/// Admission control turned a submission away before it reached the
/// JobTracker (the workflow never got a WorkflowId). `submission` is the
/// dense submission index, shared with admitted workflows.
struct WorkflowRejected {
  std::uint32_t submission = 0;
  std::string name;
  SimTime deadline = kTimeInfinity;  ///< absolute; kTimeInfinity = none
  std::string reason;                ///< "infeasible" or "pending-budget"
};

/// Deadline-aware load shedding killed an admitted workflow to keep the
/// pending set within budget (shed_latest_deadline_first).
struct WorkflowShed {
  std::uint32_t workflow = 0;
  SimTime deadline = kTimeInfinity;
  std::uint32_t attempts_killed = 0;
};

// ---- job lifecycle ---------------------------------------------------------

/// The wjob's submitter task finished loading it; it is now schedulable.
struct JobActivated {
  std::uint32_t workflow = 0;
  std::uint32_t job = 0;
};

/// Every task of the wjob finished.
struct JobCompleted {
  std::uint32_t workflow = 0;
  std::uint32_t job = 0;
};

// ---- task lifecycle --------------------------------------------------------

/// A task attempt was handed to a slot. `speculative` marks LATE-style
/// backup attempts (they occupy a slot but are not new task progress).
struct TaskStarted {
  std::uint64_t attempt = 0;  ///< unique per run, matches the TaskEnded pair
  std::uint32_t workflow = 0;
  std::uint32_t job = 0;
  SlotType slot = SlotType::kMap;
  std::size_t tracker = 0;
  Duration scheduled_duration = 0;  ///< what the engine drew for this attempt
  bool speculative = false;
};

/// Why an attempt was killed. Forensics classifies each kill into an
/// attribution bucket by this cause, so every kill site must name one.
enum class KillCause : std::uint8_t {
  kNone = 0,          ///< not killed (finished or injected failure)
  kNodeLoss,          ///< tracker crashed; kill recorded at detection time
  kSpeculationRace,   ///< lost the original-vs-backup race
  kWorkflowFailed,    ///< sibling task exhausted the attempt budget
  kShed,              ///< workflow evicted by admission load shedding
  kDrainMigration,    ///< drain lease expired; attempt migrated elsewhere
  kPreemption,        ///< spot-preemption wave terminated the tracker
};

[[nodiscard]] const char* to_string(KillCause cause);

/// A task attempt left its slot: success, injected failure, or a KILL
/// (node loss, lost speculation race, workflow failure).
struct TaskEnded {
  std::uint64_t attempt = 0;
  std::uint32_t workflow = 0;
  std::uint32_t job = 0;
  SlotType slot = SlotType::kMap;
  std::size_t tracker = 0;
  bool failed = false;  ///< injected failure (counts against the budget)
  bool killed = false;  ///< killed, not finished (never feeds estimators)
  bool speculative = false;
  Duration ran_for = 0;  ///< actual execution time until the end event
  KillCause cause = KillCause::kNone;  ///< set iff killed
};

/// A speculative backup attempt was launched for a straggling original.
struct SpeculativeLaunched {
  std::uint64_t attempt = 0;           ///< the backup attempt's id
  std::uint64_t original_attempt = 0;  ///< the straggler being backed up
  std::uint32_t workflow = 0;
  std::uint32_t job = 0;
  SlotType slot = SlotType::kMap;
  std::size_t tracker = 0;
};

// ---- cluster / fault model -------------------------------------------------

/// One TaskTracker heartbeat was served by the master. Published after the
/// scheduler filled the tracker's idle slots.
struct HeartbeatServed {
  std::size_t tracker = 0;
  std::uint32_t assigned_map = 0;     ///< tasks started this heartbeat
  std::uint32_t assigned_reduce = 0;
  std::uint32_t free_map = 0;         ///< idle slots left afterwards
  std::uint32_t free_reduce = 0;
};

/// A TaskTracker went silent (crash injection). The master does not know
/// yet; detection follows at lease expiry or re-registration.
struct TrackerCrashed {
  std::size_t tracker = 0;
  SimTime restart_time = kTimeInfinity;  ///< kTimeInfinity = never restarts
};

/// The JobTracker declared the tracker lost and reconciled its state.
struct TrackerLost {
  std::size_t tracker = 0;
  SimTime crash_time = 0;
  std::uint32_t attempts_killed = 0;
  std::uint32_t map_outputs_lost = 0;
};

/// A crashed tracker re-registered with every slot free.
struct TrackerRestarted {
  std::size_t tracker = 0;
};

/// A tracker entered its drain lease (graceful decommission or autoscaler
/// scale-in): no new work is scheduled there; running attempts may finish
/// until `lease_deadline`, after which the rest migrate.
struct TrackerDraining {
  std::size_t tracker = 0;
  SimTime lease_deadline = 0;
};

/// A draining tracker retired from the pool: either its attempts all
/// finished within the lease, or the lease expired and `migrated` attempts
/// were killed and re-queued elsewhere.
struct TrackerDecommissioned {
  std::size_t tracker = 0;
  std::uint32_t migrated = 0;
};

/// A fresh tracker registered with the master mid-run (elastic join or
/// autoscaler scale-out) and is immediately eligible for work.
struct TrackerJoined {
  std::size_t tracker = 0;
};

/// A spot-preemption wave warned this tracker: it stops accepting work now
/// and terminates at `termination_time`. Unlike a crash, the master knows
/// immediately — no lease-expiry detection delay.
struct PreemptionWarning {
  std::size_t tracker = 0;
  SimTime termination_time = 0;
};

// ---- scheduler internals ---------------------------------------------------

/// WOHA generated a scheduling plan for a freshly submitted workflow
/// (client-side work, Fig. 1 steps (c)-(d)).
struct PlanGenerated {
  std::uint32_t workflow = 0;
  std::uint32_t resource_cap = 0;
  Duration simulated_makespan = 0;
  std::size_t steps = 0;
  std::uint64_t total_tasks = 0;
};

/// A workflow moved inside the priority queue outside the normal
/// assign-path repositioning — currently: progress regression after a node
/// fault re-queued `tasks_lost` of its tasks (rho rolled back, lag grew).
struct QueueReordered {
  std::uint32_t workflow = 0;
  std::uint64_t tasks_lost = 0;
};

/// One scheduling decision, with the ranking the scheduler consulted —
/// enough to *explain* every prioritization after the fact.
///
/// Every scheduler ranks only candidates runnable for the offered slot
/// type. Candidate semantics per scheduler:
///   WOHA-*  — workflows, requirement = F_i(ttd), rho = rho_i, score = lag
///             (descending);
///   EDF     — workflows, score = absolute deadline (ascending);
///   EDF-JOB — jobs, score = virtual job deadline (ascending), job is set;
///   Fair    — workflows, score = running task count (ascending, ties by
///             id);
///   FIFO    — jobs, score = position in activation order (ascending), job
///             is set.
/// An offer of a slot type with nothing runnable anywhere is answered by
/// the engine without a consult: unassigned, with an empty ranking.
struct SchedulerDecision {
  static constexpr std::uint32_t kNoJob = 0xffffffffu;

  std::string scheduler;  ///< WorkflowScheduler::name()
  SlotType slot = SlotType::kMap;
  std::size_t tracker = 0;
  bool assigned = false;        ///< false = slot left idle
  std::uint32_t workflow = 0;   ///< chosen workflow (when assigned)
  std::uint32_t job = kNoJob;   ///< chosen wjob (when assigned)

  struct Candidate {
    std::uint32_t workflow = 0;
    std::uint32_t job = kNoJob;       ///< job-level schedulers only
    std::int64_t score = 0;           ///< the ordering key (see above)
    std::uint64_t requirement = 0;    ///< WOHA: F_i(ttd)
    std::uint64_t rho = 0;            ///< WOHA: tasks handed to slots
  };
  /// Top-of-queue candidates in the order the scheduler considered them
  /// (bounded; see kMaxRankedCandidates).
  std::vector<Candidate> ranking;
};

/// How many queue-head candidates schedulers snapshot into
/// SchedulerDecision::ranking. Bounded so tracing a 10^5-workflow queue
/// stays O(1) per decision.
inline constexpr std::size_t kMaxRankedCandidates = 8;

// ----------------------------------------------------------------------------

using Payload =
    std::variant<WorkflowSubmitted, WorkflowCompleted, WorkflowFailed,
                 WorkflowRejected, WorkflowShed, JobActivated, JobCompleted,
                 TaskStarted, TaskEnded, SpeculativeLaunched, HeartbeatServed,
                 TrackerCrashed, TrackerLost, TrackerRestarted, TrackerDraining,
                 TrackerDecommissioned, TrackerJoined, PreemptionWarning,
                 PlanGenerated, QueueReordered, SchedulerDecision>;

struct Event {
  SimTime time = 0;  ///< simulated milliseconds
  Payload payload;
};

/// Stable kebab-case name of the payload alternative ("task-started", ...);
/// used as the JSONL "type" field and the Chrome-trace event name.
[[nodiscard]] const char* kind_name(const Payload& payload);

}  // namespace woha::obs

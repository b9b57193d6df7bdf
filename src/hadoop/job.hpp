// Runtime state of wjobs and workflows inside the (simulated) JobTracker.
//
// Mirrors Hadoop-1's JobInProgress: a job moves through
//   waiting (predecessors unfinished) -> activating (submitter latency)
//   -> active (tasks schedulable) -> complete,
// with the map phase gating the reduce phase (all m maps must finish before
// any reduce may start — Algorithm 1's model; Hadoop slow-start is out of
// scope, see README).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "workflow/workflow.hpp"

namespace woha::hadoop {

/// Identifies a job to the scheduler: (workflow index, wjob index) — both
/// dense indices into the JobTracker's tables.
struct JobRef {
  std::uint32_t workflow = 0;
  std::uint32_t job = 0;
  friend constexpr auto operator<=>(const JobRef&, const JobRef&) = default;
};

class JobInProgress;
class WorkflowRuntime;

/// Receives every has_available flip of every job of a workflow, after the
/// workflow's own available_jobs count has absorbed it. The JobTracker
/// implements this to keep its per-slot-type runnable-job index (jobs with
/// an assignable task, in activation order) and to report each workflow's
/// available_jobs crossing zero, so schedulers read who can use a slot
/// instead of scanning their queues.
class AvailabilityListener {
 public:
  virtual ~AvailabilityListener() = default;
  /// `job` gained (`available`) or lost its last assignable task of type `t`.
  virtual void on_job_availability_changed(JobInProgress& job, SlotType t,
                                           bool available) = 0;
};

enum class JobState : std::uint8_t {
  kWaiting,     ///< Some prerequisite wjob has not finished.
  kActivating,  ///< Prereqs done; submitter map task is loading jars / splits.
  kActive,      ///< Schedulable: has pending or running tasks.
  kComplete,    ///< All maps and reduces finished.
  kFailed,      ///< A task exhausted its attempt budget (or the workflow died).
};

class JobInProgress {
 public:
  JobInProgress(JobRef ref, const wf::JobSpec& spec)
      : ref_(ref),
        spec_(&spec),
        pending_maps_(spec.num_maps),
        pending_reduces_(spec.num_reduces) {
    pending_by_retry_[0].assign(1, spec.num_maps);
    pending_by_retry_[1].assign(1, spec.num_reduces);
  }

  [[nodiscard]] JobRef ref() const { return ref_; }
  [[nodiscard]] const wf::JobSpec& spec() const { return *spec_; }
  [[nodiscard]] JobState state() const { return state_; }

  [[nodiscard]] std::uint32_t pending(SlotType t) const {
    return t == SlotType::kMap ? pending_maps_ : pending_reduces_;
  }
  [[nodiscard]] std::uint32_t running(SlotType t) const {
    return t == SlotType::kMap ? running_maps_ : running_reduces_;
  }
  [[nodiscard]] std::uint32_t finished(SlotType t) const {
    return t == SlotType::kMap ? finished_maps_ : finished_reduces_;
  }
  [[nodiscard]] std::uint32_t running_total() const {
    return running_maps_ + running_reduces_;
  }

  [[nodiscard]] bool map_phase_done() const {
    return finished_maps_ == spec_->num_maps;
  }
  /// A task of type `t` could be handed to a free slot right now.
  [[nodiscard]] bool has_available(SlotType t) const {
    if (state_ != JobState::kActive) return false;
    if (t == SlotType::kMap) return pending_maps_ > 0;
    return pending_reduces_ > 0 && map_phase_done();
  }
  /// True when any task (map or reduce) is currently assignable.
  [[nodiscard]] bool has_any_available() const {
    return has_available(SlotType::kMap) || has_available(SlotType::kReduce);
  }
  [[nodiscard]] bool complete() const { return state_ == JobState::kComplete; }

  [[nodiscard]] SimTime activation_time() const { return activation_time_; }
  [[nodiscard]] SimTime finish_time() const { return finish_time_; }

  // --- state transitions (driven by the JobTracker/engine) -------------
  void mark_activating() { state_ = JobState::kActivating; }
  void mark_active(SimTime now);
  /// Account a task handed to a slot. Requires has_available(t). Pending
  /// tasks with prior failed attempts are served first (Hadoop prioritises
  /// failed tasks); returns the retry level of the attempt (0 = first try).
  std::uint32_t start_task(SlotType t);
  /// Account a finished task; flips the job to kComplete when the last
  /// reduce (or last map of a map-only job) finishes. Returns true exactly
  /// when this call completed the job.
  bool finish_task(SlotType t, SimTime now);
  /// Account a failed attempt: the task leaves the running set and returns
  /// to the pending pool at retry level `retry_level` (its prior level + 1).
  void fail_task(SlotType t, std::uint32_t retry_level = 0);
  /// Account a KILLED attempt (tracker loss): like fail_task but the retry
  /// does not advance — kills never count against the attempt budget.
  void requeue_running(SlotType t, std::uint32_t retry_level);
  /// Node loss invalidated `count` completed map outputs (Hadoop-1 stores
  /// them on the slave's local disk): the maps return to the pending pool
  /// as fresh tasks and the map phase reopens. Illegal on a complete job —
  /// a complete job's outputs have been fully consumed by its reduces.
  void invalidate_finished_maps(std::uint32_t count);
  /// A task exhausted max_attempts (or the workflow failed): the job stops
  /// offering tasks forever.
  void mark_failed();

  [[nodiscard]] std::uint32_t failed_attempts() const { return failed_attempts_; }

 private:
  friend class WorkflowRuntime;
  friend class JobTracker;  // assigns activation_seq_

  static constexpr std::uint32_t kNoSeq = 0xffffffffu;

  /// Re-derive both has_available flags and push deltas to the owning
  /// workflow when one flipped. Every mutator ends with this call, so the
  /// cached availability index can never go stale.
  void sync_avail();

  JobRef ref_;
  const wf::JobSpec* spec_;
  WorkflowRuntime* owner_ = nullptr;  ///< set by WorkflowRuntime; never reseated
  bool avail_cached_[2] = {false, false};
  /// Cluster-wide activation sequence number, the job's place in the
  /// JobTracker's runnable index. Assigned when the job first gains an
  /// assignable task, which happens inside mark_active.
  std::uint32_t activation_seq_ = kNoSeq;
  JobState state_ = JobState::kWaiting;
  std::uint32_t pending_maps_;
  std::uint32_t running_maps_ = 0;
  std::uint32_t finished_maps_ = 0;
  std::uint32_t pending_reduces_;
  std::uint32_t running_reduces_ = 0;
  std::uint32_t finished_reduces_ = 0;
  std::uint32_t failed_attempts_ = 0;
  SimTime activation_time_ = -1;
  SimTime finish_time_ = -1;
  /// pending_by_retry_[slot][level] = pending tasks whose next attempt is
  /// attempt number level+1. Totals are mirrored in pending_maps_ /
  /// pending_reduces_.
  std::vector<std::uint32_t> pending_by_retry_[2];

  void add_pending(SlotType t, std::uint32_t retry_level, std::uint32_t count);
};

/// Runtime state of one workflow W_i.
class WorkflowRuntime {
 public:
  WorkflowRuntime(WorkflowId id, wf::WorkflowSpec spec, SimTime submit_time);
  // Jobs hold a back-pointer to their workflow; relocating the workflow
  // would dangle it.
  WorkflowRuntime(const WorkflowRuntime&) = delete;
  WorkflowRuntime& operator=(const WorkflowRuntime&) = delete;

  [[nodiscard]] WorkflowId id() const { return id_; }
  [[nodiscard]] const wf::WorkflowSpec& spec() const { return spec_; }
  [[nodiscard]] SimTime submit_time() const { return submit_time_; }
  /// Absolute deadline D_i (kTimeInfinity if none).
  [[nodiscard]] SimTime deadline() const { return deadline_; }
  [[nodiscard]] SimTime finish_time() const { return finish_time_; }
  [[nodiscard]] bool finished() const { return finish_time_ >= 0; }
  /// True when a job failed permanently (task exhausted its attempt budget).
  [[nodiscard]] bool failed() const { return failed_; }
  /// True when the admission controller shed this workflow to keep the
  /// pending budget. A shed workflow also reads as failed() so every
  /// "skip dead workflows" guard applies; summaries report it separately.
  [[nodiscard]] bool shed() const { return shed_; }

  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }
  [[nodiscard]] JobInProgress& job(std::uint32_t j) { return jobs_[j]; }
  [[nodiscard]] const JobInProgress& job(std::uint32_t j) const { return jobs_[j]; }

  /// Number of unfinished prerequisite wjobs of job j.
  [[nodiscard]] std::uint32_t remaining_prereqs(std::uint32_t j) const {
    return remaining_prereqs_[j];
  }
  /// Direct dependents of job j (inverse prerequisite relation).
  [[nodiscard]] const std::vector<std::uint32_t>& dependents(std::uint32_t j) const {
    return dependents_[j];
  }

  /// True progress rho_i: tasks of this workflow handed to slots so far.
  [[nodiscard]] std::uint64_t tasks_scheduled() const { return tasks_scheduled_; }
  void count_scheduled_task() { ++tasks_scheduled_; }

  /// Number of this workflow's jobs with has_available(t) — maintained
  /// incrementally, so schedulers can skip a whole workflow in O(1).
  [[nodiscard]] std::uint32_t available_jobs(SlotType t) const {
    return avail_jobs_[static_cast<std::size_t>(t)];
  }
  /// Forward every job's availability flip (to the owning JobTracker).
  void set_availability_listener(AvailabilityListener* listener) {
    listener_ = listener;
  }

  /// Called when job j finishes; decrements dependents' prereq counters and
  /// returns the newly unlocked job indices. Marks the workflow finished
  /// when the last job completes.
  std::vector<std::uint32_t> on_job_complete(std::uint32_t j, SimTime now);

  /// Task -> job -> workflow failure propagation: every non-complete job is
  /// marked kFailed so nothing of this workflow is ever scheduled again.
  void mark_failed();
  /// Deadline-aware load shedding: same teardown as mark_failed, but the
  /// workflow is additionally tagged shed() so it is not counted as a fault
  /// casualty.
  void mark_shed();

  [[nodiscard]] std::uint32_t unfinished_jobs() const { return unfinished_jobs_; }

 private:
  friend class JobInProgress;
  void on_job_avail_changed(JobInProgress& job, SlotType t, bool available);

  WorkflowId id_;
  wf::WorkflowSpec spec_;
  SimTime submit_time_;
  SimTime deadline_;
  SimTime finish_time_ = -1;
  bool failed_ = false;
  bool shed_ = false;
  std::vector<JobInProgress> jobs_;
  std::vector<std::uint32_t> remaining_prereqs_;
  std::vector<std::vector<std::uint32_t>> dependents_;
  std::uint32_t unfinished_jobs_;
  std::uint64_t tasks_scheduled_ = 0;
  std::uint32_t avail_jobs_[2] = {0, 0};
  AvailabilityListener* listener_ = nullptr;
};

}  // namespace woha::hadoop

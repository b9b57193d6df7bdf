// The (simulated) JobTracker: the master-node bookkeeping for workflows,
// wjobs, and their dependency-driven activation. The engine owns the clock;
// this class owns the state.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "hadoop/job.hpp"

namespace woha::obs {
class EventBus;
}  // namespace woha::obs

namespace woha::hadoop {

/// Receives the runnable flips the JobTracker computes: each job's
/// has_available(t) and each workflow's available_jobs(t) crossing zero.
/// Fair, EDF and WOHA keep their orderings of runnable workflows with the
/// second, EDF-JOB its ordering of runnable jobs with the first.
class RunnableWorkflowListener {
 public:
  virtual ~RunnableWorkflowListener() = default;
  /// has_available(t) of `job` went false -> true (`runnable`) or back.
  virtual void on_job_runnable_changed(JobRef job, SlotType t, bool runnable) {
    (void)job;
    (void)t;
    (void)runnable;
  }
  /// available_jobs(t) of `wf` went 0 -> 1 (`runnable`) or 1 -> 0.
  virtual void on_workflow_runnable_changed(WorkflowId wf, SlotType t, bool runnable) {
    (void)wf;
    (void)t;
    (void)runnable;
  }
};

class JobTracker : public AvailabilityListener {
 public:
  /// Register a workflow at its submission time; returns its WorkflowId
  /// (dense index, as in paper step (f): "gets a unique workflow ID").
  /// Publishes obs::WorkflowSubmitted when an event bus is attached.
  WorkflowId add_workflow(wf::WorkflowSpec spec, SimTime now);

  /// Attach the run's event bus (the engine does this at construction).
  void set_event_bus(obs::EventBus* bus) { bus_ = bus; }

  [[nodiscard]] std::size_t workflow_count() const { return workflows_.size(); }
  [[nodiscard]] WorkflowRuntime& workflow(WorkflowId id) {
    return *workflows_.at(id.value());
  }
  [[nodiscard]] const WorkflowRuntime& workflow(WorkflowId id) const {
    return *workflows_.at(id.value());
  }
  [[nodiscard]] JobInProgress& job(JobRef ref) {
    return workflows_.at(ref.workflow)->job(ref.job);
  }
  [[nodiscard]] const JobInProgress& job(JobRef ref) const {
    return workflows_.at(ref.workflow)->job(ref.job);
  }

  /// All workflows, in submission order.
  [[nodiscard]] const std::vector<std::unique_ptr<WorkflowRuntime>>& workflows() const {
    return workflows_;
  }

  /// Workflows not yet finished.
  [[nodiscard]] std::uint32_t active_workflows() const { return active_workflows_; }
  void count_workflow_finished() { --active_workflows_; }

  /// Cluster-global count of jobs with has_available(t): the size of the
  /// runnable index, so "could ANY task use this slot?" is one read.
  [[nodiscard]] std::uint64_t available_jobs(SlotType t) const {
    return runnable_[static_cast<std::size_t>(t)].count;
  }

  /// Visit every job with has_available(t) in activation order (the order
  /// in which mark_active ran) until `visit` returns false. The oldest is a
  /// word read; the walk skips non-runnable jobs 64 at a time.
  template <class Visit>
  void visit_runnable_jobs(SlotType t, Visit&& visit) const {
    const RunnableIndex& index = runnable_[static_cast<std::size_t>(t)];
    for (std::size_t w = index.low; w < index.words.size(); ++w) {
      for (std::uint64_t bits = index.words[w]; bits != 0; bits &= bits - 1) {
        const auto seq = w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        if (!visit(activated_[seq])) return;
      }
    }
  }

  /// Report every job's runnable flip and every workflow's
  /// available_jobs(t) crossing zero to `listener` (nullptr stops the
  /// reports). One listener at a time. Registering does not change tracker
  /// state, so a scheduler may do it through the const tracker that
  /// WorkflowScheduler::attach hands it.
  void watch_runnable_workflows(RunnableWorkflowListener* listener) const {
    workflow_listener_ = listener;
  }

  void on_job_availability_changed(JobInProgress& job, SlotType t,
                                   bool available) override;

 private:
  /// One slot type's runnable jobs: bit s is set iff the job with
  /// activation sequence s has an assignable task. `low` is the first
  /// non-zero word (words.size() when none is), and moves back when an
  /// older job becomes runnable again (a retry, lost map outputs).
  struct RunnableIndex {
    std::vector<std::uint64_t> words;
    std::size_t low = 0;
    std::uint64_t count = 0;
  };

  // unique_ptr: WorkflowRuntime addresses must stay stable across
  // submissions because schedulers hold references between calls.
  std::vector<std::unique_ptr<WorkflowRuntime>> workflows_;
  std::uint32_t active_workflows_ = 0;
  std::vector<JobRef> activated_;  ///< by activation sequence number
  RunnableIndex runnable_[2];
  mutable RunnableWorkflowListener* workflow_listener_ = nullptr;
  obs::EventBus* bus_ = nullptr;
};

}  // namespace woha::hadoop

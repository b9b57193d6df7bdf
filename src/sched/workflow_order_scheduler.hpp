// What Fair and EDF share: each serves the workflows the JobTracker reports
// runnable for the offered slot type in a policy order (Fair: fewest
// running tasks first; EDF: earliest deadline first; ties to the older
// workflow), and within a workflow its unfinished jobs in activation order.
// A pick is the first such job the offer allows; unfiltered, a job of the
// head workflow.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hadoop/job_tracker.hpp"
#include "hadoop/scheduler.hpp"
#include "sched/runnable_order.hpp"

namespace woha::sched {

class WorkflowOrderScheduler : public hadoop::WorkflowScheduler,
                               private hadoop::RunnableWorkflowListener {
 public:
  WorkflowOrderScheduler() = default;
  WorkflowOrderScheduler(const WorkflowOrderScheduler&) = delete;
  WorkflowOrderScheduler& operator=(const WorkflowOrderScheduler&) = delete;
  ~WorkflowOrderScheduler() override;

  /// Also registers for the tracker's runnable-workflow reports.
  void attach(const hadoop::JobTracker* tracker) override;
  void on_workflow_submitted(WorkflowId wf, SimTime now) override;
  void on_job_activated(hadoop::JobRef job, SimTime) override {
    workflows_[job.workflow].jobs.push_back(job.job);
  }
  /// A complete job never has a task again, so consults stop looking at it.
  void on_job_completed(hadoop::JobRef job, SimTime) override {
    std::erase(workflows_[job.workflow].jobs, job.job);
  }
  /// Completion and failure leave the workflow no runnable job, so its last
  /// reports have already taken it out of both orders.
  void on_workflow_completed(WorkflowId wf, SimTime) override {
    workflows_[wf.value()] = Workflow{};
  }
  std::optional<hadoop::JobRef> select_task(const hadoop::SlotOffer& slot,
                                            SimTime now) override;

 protected:
  /// The policy's score for a workflow just submitted.
  [[nodiscard]] virtual std::int64_t initial_score(WorkflowId wf) const = 0;
  [[nodiscard]] std::int64_t score(std::uint32_t wf) const {
    return workflows_[wf].score;
  }
  /// Re-key a live workflow at `score` in the orders that hold it (none
  /// for a workflow already completed or failed).
  void rescore(std::uint32_t wf, std::int64_t score);

 private:
  struct Workflow {
    bool live = false;  ///< submitted and not yet completed or failed
    std::int64_t score = 0;
    std::vector<std::uint32_t> jobs;  ///< activated, not complete; activation order
  };
  void on_workflow_runnable_changed(WorkflowId wf, SlotType t, bool runnable) override;

  std::vector<Workflow> workflows_;  ///< by workflow id
  /// Per slot type, the live workflows with available_jobs(t) > 0.
  RunnableOrder order_;
};

}  // namespace woha::sched

// Job-level EDF with critical-path deadline decomposition — a stronger
// deadline-aware baseline than workflow-level EDF, representative of the
// real-time literature the paper surveys (Saifullah et al., Baruah et al.:
// decompose the DAG, then run a classic scheduler on the pieces).
//
// Each wjob J_i^j receives a virtual deadline
//     d_i^j = D_i − L_down(j) + len(j)
// where L_down(j) is the longest downstream path including j: the latest
// instant the job may *finish* while leaving enough serial time for its
// longest chain of successors. Tasks are then served in earliest
// virtual-job-deadline order across all workflows. Unlike WOHA this ignores
// task counts and cluster capacity (it is purely path-based), which is
// exactly the gap the progress-requirement plans fill — quantified by
// bench_ablation_decomposition.
#pragma once

#include <vector>

#include "hadoop/job_tracker.hpp"
#include "hadoop/scheduler.hpp"
#include "sched/runnable_order.hpp"

namespace woha::sched {

class DecomposedEdfScheduler final : public hadoop::WorkflowScheduler,
                                     private hadoop::RunnableWorkflowListener {
 public:
  DecomposedEdfScheduler() = default;
  DecomposedEdfScheduler(const DecomposedEdfScheduler&) = delete;
  DecomposedEdfScheduler& operator=(const DecomposedEdfScheduler&) = delete;
  ~DecomposedEdfScheduler() override;

  [[nodiscard]] std::string name() const override { return "EDF-JOB"; }

  /// Also registers for the tracker's runnable-job reports.
  void attach(const hadoop::JobTracker* tracker) override;
  void on_workflow_submitted(WorkflowId wf, SimTime now) override;
  void on_job_activated(hadoop::JobRef, SimTime) override {}
  /// Completion and failure leave no runnable job (their last reports took
  /// the jobs out of both orders), so the deadlines can go.
  void on_workflow_completed(WorkflowId wf, SimTime) override {
    deadlines_[wf.value()] = {};
  }
  std::optional<hadoop::JobRef> select_task(const hadoop::SlotOffer& slot,
                                            SimTime now) override;

  /// Virtual deadline assigned to a job (kTimeInfinity when the workflow
  /// has no deadline, or has completed or failed). Exposed for tests.
  [[nodiscard]] SimTime job_deadline(hadoop::JobRef job) const;

 private:
  void on_job_runnable_changed(hadoop::JobRef job, SlotType t, bool runnable) override;

  /// Virtual deadlines by workflow id, then wjob; empty once the workflow
  /// completed or failed.
  std::vector<std::vector<SimTime>> deadlines_;
  /// Per slot type, the runnable jobs by (virtual deadline, workflow, job).
  RunnableOrder runnable_;
};

}  // namespace woha::sched

// "Oozie with FIFO job scheduler" baseline (paper Section V-B).
//
// Oozie submits a wjob to the JobTracker as soon as its predecessors
// complete; Hadoop's default JobQueueTaskScheduler keeps jobs ordered by
// submission time and, per idle slot, walks the list until it finds a job
// with an assignable task. The scheduler knows nothing about workflows or
// deadlines — exactly the information separation the paper criticizes.
#pragma once

#include "hadoop/job_tracker.hpp"
#include "hadoop/scheduler.hpp"

namespace woha::sched {

/// Activation order is Hadoop submission order, and the JobTracker already
/// keeps the jobs that have an assignable task in that order, so the
/// scheduler holds no state: a pick is the first runnable job the offer
/// allows.
class FifoScheduler final : public hadoop::WorkflowScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "FIFO"; }

  void on_workflow_submitted(WorkflowId, SimTime) override {}
  void on_job_activated(hadoop::JobRef, SimTime) override {}
  std::optional<hadoop::JobRef> select_task(const hadoop::SlotOffer& slot,
                                            SimTime now) override;
};

}  // namespace woha::sched

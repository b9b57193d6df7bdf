// "Oozie with Fair job scheduler" baseline (paper Section V-B).
//
// Mimics Facebook's FairScheduler ported to workflows: all unfinished
// workflows share the cluster evenly, work-conservingly. At task-assignment
// granularity this means: give the slot to the workflow that currently runs
// the fewest tasks (its deficit from fair share is largest), among workflows
// that can actually use the slot. Deadlines are ignored.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sched/workflow_order_scheduler.hpp"

namespace woha::sched {

/// Orders runnable workflows by (running tasks, id): most-starved first,
/// ties by id (submission order). Within a workflow, jobs are served in
/// activation order (Oozie submits them independently; FairScheduler treats
/// each as an equal job — we share at workflow granularity per the paper's
/// port). Each pick and each finish re-keys the workflow.
class FairScheduler final : public WorkflowOrderScheduler {
 public:
  [[nodiscard]] std::string name() const override { return "Fair"; }

  void on_task_finished(hadoop::JobRef job, SlotType, SimTime) override {
    add_running(job.workflow, -1);
  }
  std::optional<hadoop::JobRef> select_task(const hadoop::SlotOffer& slot,
                                            SimTime now) override {
    const std::optional<hadoop::JobRef> choice =
        WorkflowOrderScheduler::select_task(slot, now);
    if (choice) add_running(choice->workflow, 1);
    return choice;
  }

 private:
  [[nodiscard]] std::int64_t initial_score(WorkflowId) const override { return 0; }
  /// Move `wf`'s running-task count by `delta`. Unsigned on purpose:
  /// finishes of attempts Fair never picked (speculative backups) can wrap
  /// the count, and a wrapped count sorts last.
  void add_running(std::uint32_t wf, int delta) {
    rescore(wf, static_cast<std::uint32_t>(score(wf) + delta));
  }
};

}  // namespace woha::sched

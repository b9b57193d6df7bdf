// "Oozie with Fair job scheduler" baseline (paper Section V-B).
//
// Mimics Facebook's FairScheduler ported to workflows: all unfinished
// workflows share the cluster evenly, work-conservingly. At task-assignment
// granularity this means: give the slot to the workflow that currently runs
// the fewest tasks (its deficit from fair share is largest), among workflows
// that can actually use the slot. Deadlines are ignored.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "hadoop/job_tracker.hpp"
#include "hadoop/scheduler.hpp"

namespace woha::sched {

class FairScheduler final : public hadoop::WorkflowScheduler,
                            private hadoop::RunnableWorkflowListener {
 public:
  FairScheduler() = default;
  FairScheduler(const FairScheduler&) = delete;
  FairScheduler& operator=(const FairScheduler&) = delete;
  ~FairScheduler() override;

  [[nodiscard]] std::string name() const override { return "Fair"; }

  /// Also registers for the tracker's runnable-workflow reports.
  void attach(const hadoop::JobTracker* tracker) override;
  void on_workflow_submitted(WorkflowId wf, SimTime now) override;
  void on_job_activated(hadoop::JobRef job, SimTime now) override;
  void on_task_finished(hadoop::JobRef job, SlotType t, SimTime now) override;
  void on_workflow_completed(WorkflowId wf, SimTime now) override;
  std::optional<hadoop::JobRef> select_task(const hadoop::SlotOffer& slot,
                                            SimTime now) override;

 private:
  struct Share {
    bool live = false;  ///< submitted and not yet completed or failed
    std::uint32_t running_tasks = 0;
    // Within a workflow, jobs are served in activation order (Oozie submits
    // them independently; FairScheduler treats each as an equal job — we
    // share at workflow granularity per the paper's port).
    std::vector<std::uint32_t> jobs;
  };
  /// Ordering key (running tasks, id): most-starved first, ties by id
  /// (submission order).
  static std::uint64_t key(std::uint32_t running_tasks, std::uint32_t wf) {
    return (std::uint64_t{running_tasks} << 32) | wf;
  }
  void on_workflow_runnable_changed(WorkflowId wf, SlotType t, bool runnable) override;
  /// Re-key `wf` in every ordering that holds it after its count moved.
  void set_running(std::uint32_t wf, std::uint32_t running_tasks);

  std::vector<Share> shares_;  ///< by workflow id
  /// Per slot type, the live workflows with available_jobs(t) > 0.
  std::set<std::uint64_t> runnable_[2];
};

}  // namespace woha::sched

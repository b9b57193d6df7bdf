#include "sched/workflow_order_scheduler.hpp"

namespace woha::sched {

WorkflowOrderScheduler::~WorkflowOrderScheduler() {
  if (tracker_ != nullptr) tracker_->watch_runnable_workflows(nullptr);
}

void WorkflowOrderScheduler::attach(const hadoop::JobTracker* tracker) {
  WorkflowScheduler::attach(tracker);
  tracker_->watch_runnable_workflows(this);
}

void WorkflowOrderScheduler::on_workflow_submitted(WorkflowId wf, SimTime) {
  // No job is active yet: the workflow joins an order on its first
  // runnable report.
  if (workflows_.size() <= wf.value()) workflows_.resize(wf.value() + 1);
  workflows_[wf.value()] = Workflow{true, initial_score(wf), {}};
}

void WorkflowOrderScheduler::on_workflow_runnable_changed(WorkflowId wf, SlotType t,
                                                          bool runnable) {
  // Teardown (mark_failed / mark_shed) may report flips for a workflow this
  // scheduler has already dropped.
  const Workflow& w = workflows_[wf.value()];
  if (!w.live) return;
  const RunnableKey key{w.score, wf.value()};
  runnable ? order_.insert(t, key) : order_.erase(t, key);
}

void WorkflowOrderScheduler::rescore(std::uint32_t wf, std::int64_t score) {
  Workflow& w = workflows_[wf];
  if (!w.live) return;
  // A live workflow is in t's order exactly while it has a runnable job of
  // type t.
  const hadoop::WorkflowRuntime& rt = tracker_->workflow(WorkflowId(wf));
  for (const SlotType t : {SlotType::kMap, SlotType::kReduce}) {
    if (rt.available_jobs(t) > 0) order_.rekey(t, {w.score, wf}, {score, wf});
  }
  w.score = score;
}

std::optional<hadoop::JobRef> WorkflowOrderScheduler::select_task(
    const hadoop::SlotOffer& slot, SimTime now) {
  const auto first_allowed = [&]() -> std::optional<hadoop::JobRef> {
    for (const RunnableKey& key : order_.walk(slot.type)) {
      for (const std::uint32_t j : workflows_[key.workflow].jobs) {
        const hadoop::JobRef ref{key.workflow, j};
        if (tracker_->job(ref).has_available(slot.type) && slot.allows(ref)) return ref;
      }
    }
    return std::nullopt;
  };
  const std::optional<hadoop::JobRef> choice = first_allowed();
  // Ranking = the runnable workflows for this slot type in policy order,
  // scored by the policy's score before this pick.
  publish_decision(slot, choice, now,
                   [&](auto& ranking) { order_.rank(slot.type, ranking); });
  return choice;
}

}  // namespace woha::sched

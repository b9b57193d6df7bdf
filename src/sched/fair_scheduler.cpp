#include "sched/fair_scheduler.hpp"

namespace woha::sched {

FairScheduler::~FairScheduler() {
  if (tracker_ != nullptr) tracker_->watch_runnable_workflows(nullptr);
}

void FairScheduler::attach(const hadoop::JobTracker* tracker) {
  WorkflowScheduler::attach(tracker);
  tracker_->watch_runnable_workflows(this);
}

void FairScheduler::on_workflow_submitted(WorkflowId wf, SimTime now) {
  (void)now;
  // No job is active yet: the workflow joins an ordering on its first
  // runnable report.
  if (shares_.size() <= wf.value()) shares_.resize(wf.value() + 1);
  shares_[wf.value()].live = true;
}

void FairScheduler::on_job_activated(hadoop::JobRef job, SimTime now) {
  (void)now;
  shares_[job.workflow].jobs.push_back(job.job);
}

void FairScheduler::on_workflow_runnable_changed(WorkflowId wf, SlotType t,
                                                 bool runnable) {
  // Teardown (mark_failed / mark_shed) may report flips for a workflow this
  // scheduler has already dropped.
  if (!shares_[wf.value()].live) return;
  const std::uint64_t k = key(shares_[wf.value()].running_tasks, wf.value());
  auto& order = runnable_[static_cast<std::size_t>(t)];
  if (runnable) {
    order.insert(k);
  } else {
    order.erase(k);
  }
}

void FairScheduler::set_running(std::uint32_t wf, std::uint32_t running_tasks) {
  Share& share = shares_[wf];
  for (auto& order : runnable_) {
    // Re-key in place: the extracted node is reused, so nothing allocates.
    auto node = order.extract(key(share.running_tasks, wf));
    if (node.empty()) continue;
    node.value() = key(running_tasks, wf);
    order.insert(std::move(node));
  }
  share.running_tasks = running_tasks;
}

void FairScheduler::on_task_finished(hadoop::JobRef job, SlotType t, SimTime now) {
  (void)t;
  (void)now;
  if (!shares_[job.workflow].live) return;
  // Unsigned on purpose: finishes of attempts Fair never picked (speculative
  // backups) can wrap the count, and a wrapped count sorts last.
  set_running(job.workflow, shares_[job.workflow].running_tasks - 1);
}

void FairScheduler::on_workflow_completed(WorkflowId wf, SimTime now) {
  (void)now;
  Share& share = shares_[wf.value()];
  for (auto& order : runnable_) order.erase(key(share.running_tasks, wf.value()));
  share = Share{};
}

std::optional<hadoop::JobRef> FairScheduler::select_task(const hadoop::SlotOffer& slot,
                                                         SimTime now) {
  // Most-starved runnable workflow first; the first one whose job the offer
  // allows wins, its jobs tried in activation order. Unfiltered, that is the
  // head of the ordering.
  const auto& order = runnable_[static_cast<std::size_t>(slot.type)];
  std::optional<hadoop::JobRef> choice;
  for (const std::uint64_t k : order) {
    const auto wf = static_cast<std::uint32_t>(k);
    for (const std::uint32_t j : shares_[wf].jobs) {
      const hadoop::JobRef ref{wf, j};
      if (tracker_->job(ref).has_available(slot.type) && slot.allows(ref)) {
        choice = ref;
        break;
      }
    }
    if (choice) break;
  }
  // Ranking = the runnable workflows for this slot type in fairness order
  // (pre-decision counts), score = running tasks.
  publish_decision(slot, choice, now, [&order](auto& ranking) {
    for (const std::uint64_t k : order) {
      if (ranking.size() == obs::kMaxRankedCandidates) break;
      ranking.push_back(obs::SchedulerDecision::Candidate{
          static_cast<std::uint32_t>(k), obs::SchedulerDecision::kNoJob,
          static_cast<std::int64_t>(k >> 32), 0, 0});
    }
  });
  if (!choice) return std::nullopt;
  set_running(choice->workflow, shares_[choice->workflow].running_tasks + 1);
  return choice;
}

}  // namespace woha::sched

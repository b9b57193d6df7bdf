#include "sched/edf_scheduler.hpp"

#include <algorithm>

namespace woha::sched {

void EdfScheduler::on_workflow_submitted(WorkflowId wf, SimTime now) {
  (void)now;
  const SimTime deadline = tracker_->workflow(wf).deadline();
  const auto pos = std::find_if(
      by_deadline_.begin(), by_deadline_.end(), [&](WorkflowId other) {
        const SimTime od = tracker_->workflow(other).deadline();
        return od > deadline || (od == deadline && other > wf);
      });
  by_deadline_.insert(pos, wf);
}

void EdfScheduler::on_job_activated(hadoop::JobRef job, SimTime now) {
  (void)now;
  active_jobs_[job.workflow].push_back(job.job);
}

void EdfScheduler::on_workflow_completed(WorkflowId wf, SimTime now) {
  (void)now;
  std::erase(by_deadline_, wf);
  active_jobs_.erase(wf.value());
}

std::optional<hadoop::JobRef> EdfScheduler::select_task(const hadoop::SlotOffer& slot,
                                                        SimTime now) {
  std::optional<hadoop::JobRef> choice;
  for (const WorkflowId wf : by_deadline_) {
    // O(1) skip of workflows with nothing assignable for this slot type.
    if (tracker_->workflow(wf).available_jobs(slot.type) == 0) continue;
    const auto it = active_jobs_.find(wf.value());
    if (it == active_jobs_.end()) continue;
    for (std::uint32_t j : it->second) {
      const hadoop::JobRef ref{wf.value(), j};
      if (tracker_->job(ref).has_available(slot.type) && slot.allows(ref)) {
        choice = ref;
        break;
      }
    }
    if (choice) break;
  }
  // Ranking = the workflows runnable for this slot type by ascending
  // absolute deadline; score is the deadline itself.
  publish_decision(slot, choice, now, [&](auto& ranking) {
    for (const WorkflowId wf : by_deadline_) {
      if (ranking.size() == obs::kMaxRankedCandidates) break;
      const hadoop::WorkflowRuntime& rt = tracker_->workflow(wf);
      if (rt.available_jobs(slot.type) == 0) continue;
      ranking.push_back(obs::SchedulerDecision::Candidate{
          wf.value(), obs::SchedulerDecision::kNoJob,
          static_cast<std::int64_t>(rt.deadline()), 0, 0});
    }
  });
  return choice;
}

}  // namespace woha::sched

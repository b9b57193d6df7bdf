#include "sched/decomposed_edf_scheduler.hpp"

#include <algorithm>

#include "workflow/analysis.hpp"

namespace woha::sched {

void DecomposedEdfScheduler::on_workflow_submitted(WorkflowId wf, SimTime now) {
  (void)now;
  const hadoop::WorkflowRuntime& rt = tracker_->workflow(wf);
  const auto& spec = rt.spec();
  std::vector<SimTime> deadlines(spec.jobs.size(), kTimeInfinity);
  if (rt.deadline() != kTimeInfinity) {
    const auto downstream = wf::downstream_path_length(spec);
    for (std::uint32_t j = 0; j < spec.jobs.size(); ++j) {
      // Latest completion instant leaving room for the longest successor
      // chain: D - (downstream path excluding this job's own length).
      const Duration successors_after = downstream[j] - spec.jobs[j].serial_length();
      deadlines[j] = rt.deadline() - successors_after;
    }
  }
  deadlines_[wf.value()] = std::move(deadlines);
}

void DecomposedEdfScheduler::on_job_activated(hadoop::JobRef job, SimTime now) {
  (void)now;
  const SimTime d = deadlines_.at(job.workflow)[job.job];
  active_.emplace(std::make_tuple(d, job.workflow, job.job), job);
}

void DecomposedEdfScheduler::on_job_completed(hadoop::JobRef job, SimTime now) {
  (void)now;
  const SimTime d = deadlines_.at(job.workflow)[job.job];
  active_.erase(std::make_tuple(d, job.workflow, job.job));
}

void DecomposedEdfScheduler::on_workflow_failed(WorkflowId wf, SimTime now) {
  (void)now;
  std::erase_if(active_, [wf](const auto& entry) {
    return entry.second.workflow == wf.value();
  });
  deadlines_.erase(wf.value());
}

std::optional<hadoop::JobRef> DecomposedEdfScheduler::select_task(
    const hadoop::SlotOffer& slot, SimTime now) {
  std::optional<hadoop::JobRef> choice;
  for (const auto& [key, ref] : active_) {
    if (tracker_->job(ref).has_available(slot.type) && slot.allows(ref)) {
      choice = ref;
      break;
    }
  }
  // Ranking = the active jobs runnable for this slot type by ascending
  // virtual deadline; score is the decomposed per-job deadline.
  publish_decision(slot, choice, now, [&](auto& ranking) {
    for (const auto& [key, ref] : active_) {
      if (ranking.size() >= obs::kMaxRankedCandidates) break;
      if (!tracker_->job(ref).has_available(slot.type)) continue;
      ranking.push_back(obs::SchedulerDecision::Candidate{
          ref.workflow, ref.job, static_cast<std::int64_t>(std::get<0>(key)), 0,
          0});
    }
  });
  return choice;
}

SimTime DecomposedEdfScheduler::job_deadline(hadoop::JobRef job) const {
  const auto it = deadlines_.find(job.workflow);
  if (it == deadlines_.end() || job.job >= it->second.size()) return kTimeInfinity;
  return it->second[job.job];
}

}  // namespace woha::sched

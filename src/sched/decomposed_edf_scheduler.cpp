#include "sched/decomposed_edf_scheduler.hpp"

#include "workflow/analysis.hpp"

namespace woha::sched {

DecomposedEdfScheduler::~DecomposedEdfScheduler() {
  if (tracker_ != nullptr) tracker_->watch_runnable_workflows(nullptr);
}

void DecomposedEdfScheduler::attach(const hadoop::JobTracker* tracker) {
  WorkflowScheduler::attach(tracker);
  tracker_->watch_runnable_workflows(this);
}

void DecomposedEdfScheduler::on_workflow_submitted(WorkflowId wf, SimTime) {
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
  if (deadlines_.size() <= wf.value()) deadlines_.resize(wf.value() + 1);
  deadlines_[wf.value()] = std::move(deadlines);
}

void DecomposedEdfScheduler::on_job_runnable_changed(hadoop::JobRef job, SlotType t,
                                                     bool runnable) {
  const RunnableKey key{deadlines_.at(job.workflow).at(job.job), job.workflow, job.job};
  runnable ? runnable_.insert(t, key) : runnable_.erase(t, key);
}

std::optional<hadoop::JobRef> DecomposedEdfScheduler::select_task(
    const hadoop::SlotOffer& slot, SimTime now) {
  std::optional<hadoop::JobRef> choice;
  for (const RunnableKey& key : runnable_.walk(slot.type)) {
    if (slot.allows({key.workflow, key.job})) {
      choice = hadoop::JobRef{key.workflow, key.job};
      break;
    }
  }
  // Ranking = the runnable jobs for this slot type by ascending virtual
  // deadline; score is the decomposed per-job deadline.
  publish_decision(slot, choice, now,
                   [&](auto& ranking) { runnable_.rank(slot.type, ranking); });
  return choice;
}

SimTime DecomposedEdfScheduler::job_deadline(hadoop::JobRef job) const {
  if (job.workflow >= deadlines_.size()) return kTimeInfinity;
  const std::vector<SimTime>& deadlines = deadlines_[job.workflow];
  return job.job < deadlines.size() ? deadlines[job.job] : kTimeInfinity;
}

}  // namespace woha::sched

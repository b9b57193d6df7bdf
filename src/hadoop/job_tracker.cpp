#include "hadoop/job_tracker.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/event_bus.hpp"

namespace woha::hadoop {

WorkflowId JobTracker::add_workflow(wf::WorkflowSpec spec, SimTime now) {
  const WorkflowId id(static_cast<std::uint32_t>(workflows_.size()));
  workflows_.push_back(std::make_unique<WorkflowRuntime>(id, std::move(spec), now));
  workflows_.back()->set_availability_listener(this);
  ++active_workflows_;
  if (bus_ && bus_->active()) {
    const WorkflowRuntime& rt = *workflows_.back();
    bus_->publish(now, obs::WorkflowSubmitted{
                           id.value(), rt.spec().name, rt.deadline(),
                           static_cast<std::uint32_t>(rt.spec().job_count())});
  }
  return id;
}

void JobTracker::on_job_availability_changed(JobInProgress& job, SlotType t,
                                             bool available) {
  std::uint32_t& seq = job.activation_seq_;
  if (seq == JobInProgress::kNoSeq) {
    if (!available) {
      throw std::logic_error("JobTracker: unindexed job lost availability");
    }
    // A job with tasks gains one the moment mark_active runs, so first-gain
    // order is activation order.
    seq = static_cast<std::uint32_t>(activated_.size());
    activated_.push_back(job.ref());
    if (seq % 64 == 0) {
      for (RunnableIndex& index : runnable_) {
        if (index.low == index.words.size()) ++index.low;  // stays "none"
        index.words.push_back(0);
      }
    }
  }
  RunnableIndex& index = runnable_[static_cast<std::size_t>(t)];
  const std::size_t w = seq / 64;
  const std::uint64_t bit = std::uint64_t{1} << (seq % 64);
  if (((index.words[w] & bit) != 0) == available) {
    throw std::logic_error("JobTracker: runnable index out of sync");
  }
  if (available) {
    index.words[w] |= bit;
    ++index.count;
    index.low = std::min(index.low, w);
  } else {
    index.words[w] &= ~bit;
    --index.count;
    while (index.low < index.words.size() && index.words[index.low] == 0) ++index.low;
  }
  if (workflow_listener_ == nullptr) return;
  workflow_listener_->on_job_runnable_changed(job.ref(), t, available);
  if (workflows_[job.ref().workflow]->available_jobs(t) == (available ? 1u : 0u)) {
    workflow_listener_->on_workflow_runnable_changed(WorkflowId(job.ref().workflow), t,
                                                     available);
  }
}

}  // namespace woha::hadoop

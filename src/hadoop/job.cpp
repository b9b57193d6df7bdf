#include "hadoop/job.hpp"

#include <stdexcept>

namespace woha::hadoop {

void JobInProgress::sync_avail() {
  for (const SlotType t : {SlotType::kMap, SlotType::kReduce}) {
    const auto s = static_cast<std::size_t>(t);
    const bool now_avail = has_available(t);
    if (now_avail != avail_cached_[s]) {
      avail_cached_[s] = now_avail;
      if (owner_) owner_->on_job_avail_changed(*this, t, now_avail);
    }
  }
}

void JobInProgress::mark_active(SimTime now) {
  if (state_ == JobState::kActive || state_ == JobState::kComplete) {
    throw std::logic_error("JobInProgress::mark_active: already active/complete");
  }
  state_ = JobState::kActive;
  activation_time_ = now;
  sync_avail();
}

std::uint32_t JobInProgress::start_task(SlotType t) {
  if (!has_available(t)) {
    throw std::logic_error("JobInProgress::start_task: no available " +
                           std::string(to_string(t)) + " task");
  }
  // Serve the most-retried pending task first (Hadoop schedules failed
  // tasks ahead of fresh ones).
  auto& buckets = pending_by_retry_[static_cast<std::size_t>(t)];
  std::uint32_t level = static_cast<std::uint32_t>(buckets.size());
  do {
    --level;
  } while (level > 0 && buckets[level] == 0);
  if (buckets[level] == 0) {
    throw std::logic_error("JobInProgress::start_task: retry buckets out of sync");
  }
  --buckets[level];
  if (t == SlotType::kMap) {
    --pending_maps_;
    ++running_maps_;
  } else {
    --pending_reduces_;
    ++running_reduces_;
  }
  sync_avail();
  return level;
}

void JobInProgress::add_pending(SlotType t, std::uint32_t retry_level,
                                std::uint32_t count) {
  auto& buckets = pending_by_retry_[static_cast<std::size_t>(t)];
  if (buckets.size() <= retry_level) buckets.resize(retry_level + 1, 0);
  buckets[retry_level] += count;
  if (t == SlotType::kMap) {
    pending_maps_ += count;
  } else {
    pending_reduces_ += count;
  }
}

void JobInProgress::fail_task(SlotType t, std::uint32_t retry_level) {
  if (t == SlotType::kMap) {
    if (running_maps_ == 0) {
      throw std::logic_error("JobInProgress::fail_task: no running map");
    }
    --running_maps_;
  } else {
    if (running_reduces_ == 0) {
      throw std::logic_error("JobInProgress::fail_task: no running reduce");
    }
    --running_reduces_;
  }
  add_pending(t, retry_level, 1);
  ++failed_attempts_;
  sync_avail();
}

void JobInProgress::requeue_running(SlotType t, std::uint32_t retry_level) {
  if (t == SlotType::kMap) {
    if (running_maps_ == 0) {
      throw std::logic_error("JobInProgress::requeue_running: no running map");
    }
    --running_maps_;
  } else {
    if (running_reduces_ == 0) {
      throw std::logic_error("JobInProgress::requeue_running: no running reduce");
    }
    --running_reduces_;
  }
  // Killed, not failed: same retry level, no failed_attempts_ charge.
  add_pending(t, retry_level, 1);
  sync_avail();
}

void JobInProgress::invalidate_finished_maps(std::uint32_t count) {
  if (state_ == JobState::kComplete) {
    throw std::logic_error(
        "JobInProgress::invalidate_finished_maps: job already complete");
  }
  if (count > finished_maps_) {
    throw std::logic_error(
        "JobInProgress::invalidate_finished_maps: more outputs than finished maps");
  }
  finished_maps_ -= count;
  // Re-executions are fresh attempts of tasks that already succeeded once;
  // they re-enter at retry level 0 (lost outputs carry no failure history).
  add_pending(SlotType::kMap, 0, count);
  sync_avail();
}

void JobInProgress::mark_failed() {
  state_ = JobState::kFailed;
  sync_avail();
}

bool JobInProgress::finish_task(SlotType t, SimTime now) {
  if (t == SlotType::kMap) {
    if (running_maps_ == 0) {
      throw std::logic_error("JobInProgress::finish_task: no running map");
    }
    --running_maps_;
    ++finished_maps_;
  } else {
    if (running_reduces_ == 0) {
      throw std::logic_error("JobInProgress::finish_task: no running reduce");
    }
    --running_reduces_;
    ++finished_reduces_;
  }
  const bool all_done =
      finished_maps_ == spec_->num_maps && finished_reduces_ == spec_->num_reduces;
  bool completed = false;
  if (all_done && state_ != JobState::kComplete) {
    state_ = JobState::kComplete;
    finish_time_ = now;
    completed = true;
  }
  sync_avail();
  return completed;
}

WorkflowRuntime::WorkflowRuntime(WorkflowId id, wf::WorkflowSpec spec,
                                 SimTime submit_time)
    : id_(id), spec_(std::move(spec)), submit_time_(submit_time) {
  wf::validate(spec_);
  deadline_ = spec_.relative_deadline > 0 ? submit_time_ + spec_.relative_deadline
                                          : kTimeInfinity;
  const std::uint32_t n = static_cast<std::uint32_t>(spec_.jobs.size());
  jobs_.reserve(n);
  remaining_prereqs_.reserve(n);
  for (std::uint32_t j = 0; j < n; ++j) {
    jobs_.emplace_back(JobRef{id_.value(), j}, spec_.jobs[j]);
    jobs_.back().owner_ = this;
    remaining_prereqs_.push_back(
        static_cast<std::uint32_t>(spec_.jobs[j].prerequisites.size()));
  }
  dependents_ = wf::dependents(spec_);
  unfinished_jobs_ = n;
}

std::vector<std::uint32_t> WorkflowRuntime::on_job_complete(std::uint32_t j,
                                                            SimTime now) {
  if (!jobs_[j].complete()) {
    throw std::logic_error("WorkflowRuntime::on_job_complete: job not complete");
  }
  if (unfinished_jobs_ == 0) {
    throw std::logic_error("WorkflowRuntime::on_job_complete: workflow already done");
  }
  --unfinished_jobs_;
  std::vector<std::uint32_t> unlocked;
  for (std::uint32_t d : dependents_[j]) {
    if (remaining_prereqs_[d] == 0) {
      throw std::logic_error("WorkflowRuntime: dependent prereq counter underflow");
    }
    if (--remaining_prereqs_[d] == 0) unlocked.push_back(d);
  }
  if (unfinished_jobs_ == 0) finish_time_ = now;
  return unlocked;
}

void WorkflowRuntime::on_job_avail_changed(JobInProgress& job, SlotType t,
                                           bool available) {
  auto& count = avail_jobs_[static_cast<std::size_t>(t)];
  if (available) {
    ++count;
  } else {
    if (count == 0) {
      throw std::logic_error("WorkflowRuntime: availability count underflow");
    }
    --count;
  }
  if (listener_) listener_->on_job_availability_changed(job, t, available);
}

void WorkflowRuntime::mark_failed() {
  if (finished()) {
    throw std::logic_error("WorkflowRuntime::mark_failed: workflow already finished");
  }
  if (failed_) return;
  failed_ = true;
  for (JobInProgress& job : jobs_) {
    if (!job.complete()) job.mark_failed();
  }
}

void WorkflowRuntime::mark_shed() {
  if (failed_) return;  // already torn down; keep the original cause
  shed_ = true;
  mark_failed();
}

}  // namespace woha::hadoop
